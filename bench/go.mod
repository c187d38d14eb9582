module ebbrt/bench

go 1.24

require ebbrt v0.0.0

replace ebbrt => ../
