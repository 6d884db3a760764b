module st4ml/benchmark

go 1.22

require st4ml v0.0.0

replace st4ml => ../
