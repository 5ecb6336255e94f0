module gamestreamsr/bench

go 1.22

require gamestreamsr v0.0.0

replace gamestreamsr => ../
