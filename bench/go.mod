module revtr/bench

go 1.23

require revtr v0.0.0

replace revtr => ../
