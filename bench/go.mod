module satbelim/bench

go 1.22

require satbelim v0.0.0

replace satbelim => ../
