module rex/bench

go 1.22

require rex v0.0.0

replace rex => ../
