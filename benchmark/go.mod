module github.com/rewind-db/rewind/benchmark

go 1.22

require github.com/rewind-db/rewind v0.0.0

replace github.com/rewind-db/rewind => ../
