module elinda/benchmark

go 1.24

require elinda v0.0.0

replace elinda => ../
