module polyufc/bench

go 1.22

require polyufc v0.0.0

replace polyufc => ../
