.PHONY: all build test bench bench-full doc examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# Every paper-validation table (quick sizes).  Speed is measured by
# perfbench: see perfbench/README.md.
bench:
	dune exec bin/rumor_cli.exe -- experiment all

# Full-size sweeps (slow).
bench-full:
	dune exec bin/rumor_cli.exe -- experiment all --full

doc:
	dune build @doc

examples:
	dune exec examples/quickstart.exe
	dune exec examples/dichotomy.exe
	dune exec examples/p2p_churn.exe
	dune exec examples/mobile_gossip.exe
	dune exec examples/social_gossip.exe
	dune exec examples/bottleneck.exe

clean:
	dune clean
