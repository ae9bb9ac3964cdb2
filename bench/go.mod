module icewafl/bench

go 1.22

require icewafl v0.0.0

replace icewafl => ../
