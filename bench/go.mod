module venn/bench

go 1.23

require venn v0.0.0

replace venn => ../
