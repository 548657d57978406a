.PHONY: all build test micro tables clean

all: build

build:
	dune build

test:
	dune runtest

# Bechamel micro-benchmarks (one per table/figure of the paper).
micro: build
	dune exec bench/main.exe

# The paper's result tables (fast profile).
tables: build
	./_build/default/bin/pathfuzz.exe tables --fast

clean:
	dune clean
