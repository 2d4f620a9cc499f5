module hierclust/benchmarks

go 1.24

require hierclust v0.0.0

replace hierclust => ../
