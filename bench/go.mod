module green/bench

go 1.22

require green v0.0.0

replace green => ../
