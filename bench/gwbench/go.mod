module fbs/bench/gwbench

go 1.22

require fbs v0.0.0

replace fbs => ../..
