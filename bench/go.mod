module bomw/bench

go 1.22

require bomw v0.0.0

replace bomw => ../
