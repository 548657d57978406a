.PHONY: all build test tables clean

all: build

build:
	dune build

test:
	dune runtest

# The paper's result tables (fast profile).
tables: build
	./_build/default/bin/pathfuzz.exe tables --fast

clean:
	dune clean
