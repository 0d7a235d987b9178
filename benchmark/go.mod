module github.com/seed5g/seed/benchmark

go 1.22

require github.com/seed5g/seed v0.0.0

replace github.com/seed5g/seed => ../
