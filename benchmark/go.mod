module snipe/benchmark

go 1.22

require snipe v0.0.0

replace snipe => ../
