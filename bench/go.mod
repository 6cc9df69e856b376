module mxn/bench

go 1.22

require mxn v0.0.0

replace mxn => ../
