.PHONY: all build test micro tables tables-check resume-check engine-check profile-check clean

all: build

build:
	dune build

test:
	dune runtest

# Resume-determinism smoke: an interrupted-and-resumed campaign must
# print byte-identical results to the uninterrupted one — sequentially,
# and from a 2-shard snapshot resumed single-sharded (barriers are
# functions of (seed, sync_interval), not the shard count). The second
# tier repeats both on a retention-heavy run (sqlite3 under pathafl
# keeps thousands of entries), so the restored top-rated table, slot
# counts and packed index sets carry a large queue.
resume-check: build
	@rm -rf _build/resume-check && mkdir -p _build/resume-check
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f afl -b 4000 \
	  > _build/resume-check/straight.out
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f afl -b 4000 \
	  --checkpoint _build/resume-check/seq.ckpt --checkpoint-every 2500 \
	  > _build/resume-check/ckpt.out
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f afl -b 4000 \
	  --resume _build/resume-check/seq.ckpt > _build/resume-check/resumed.out
	diff _build/resume-check/straight.out _build/resume-check/ckpt.out
	diff _build/resume-check/straight.out _build/resume-check/resumed.out
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f afl -b 4000 \
	  --shards 2 --sync-interval 512 > _build/resume-check/sh-straight.out
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f afl -b 4000 \
	  --shards 2 --sync-interval 512 \
	  --checkpoint _build/resume-check/sh.ckpt --checkpoint-every 2500 \
	  > _build/resume-check/sh-ckpt.out
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f afl -b 4000 \
	  --shards 1 --sync-interval 512 --resume _build/resume-check/sh.ckpt \
	  > _build/resume-check/sh-resumed.out
	diff _build/resume-check/sh-straight.out _build/resume-check/sh-ckpt.out
	diff _build/resume-check/sh-straight.out _build/resume-check/sh-resumed.out
	./_build/default/bin/pathfuzz.exe fuzz -s sqlite3 -f pathafl -b 20000 \
	  > _build/resume-check/rh-straight.out
	./_build/default/bin/pathfuzz.exe fuzz -s sqlite3 -f pathafl -b 20000 \
	  --checkpoint _build/resume-check/rh.ckpt --checkpoint-every 500 \
	  > _build/resume-check/rh-ckpt.out
	./_build/default/bin/pathfuzz.exe fuzz -s sqlite3 -f pathafl -b 20000 \
	  --resume _build/resume-check/rh.ckpt > _build/resume-check/rh-resumed.out
	diff _build/resume-check/rh-straight.out _build/resume-check/rh-ckpt.out
	diff _build/resume-check/rh-straight.out _build/resume-check/rh-resumed.out
	./_build/default/bin/pathfuzz.exe fuzz -s sqlite3 -f pathafl -b 20000 \
	  --shards 2 > _build/resume-check/rh-sh-straight.out
	./_build/default/bin/pathfuzz.exe fuzz -s sqlite3 -f pathafl -b 20000 \
	  --shards 2 --checkpoint _build/resume-check/rh-sh.ckpt \
	  --checkpoint-every 10000 > _build/resume-check/rh-sh-ckpt.out
	./_build/default/bin/pathfuzz.exe fuzz -s sqlite3 -f pathafl -b 20000 \
	  --shards 1 --resume _build/resume-check/rh-sh.ckpt \
	  > _build/resume-check/rh-sh-resumed.out
	diff _build/resume-check/rh-sh-straight.out _build/resume-check/rh-sh-ckpt.out
	diff _build/resume-check/rh-sh-straight.out _build/resume-check/rh-sh-resumed.out
	@echo "resume-check: straight, checkpointed and resumed runs identical"

# Engine-determinism smoke: the fused closure engine and the native
# generated-unit engine must be trajectory-invisible — fuzz stdout is
# byte-identical across --engine interp/fused/native, sequentially and
# at any shard count (path mode exercises the Ball-Larus probes, the
# fused bulk-burn/folded-increment paths and the cmplog taps). The
# native tiers run against a private emit cache: the first run measures
# the cold compile wall, the second must be served entirely from the
# cache (100% hits, zero misses), and a PATHFUZZ_EMIT_FAIL=1 run must
# degrade to fused mid-flight with the fallback counted in the metrics
# — all with identical stdout. The --jsonl event streams (wall_s
# stripped) of one unclocked cmplog run per engine must match too:
# stdout shows only totals, while each calibration event carries the
# count of comparison pairs its capture saw. A pathafl tier (sqlite3,
# retention heavy: the edge probes and rolling-hash commits of the
# closure artifact and the native unit) diffs stdout and the event
# stream under interp, fused and native, sequentially and at 2 shards.
# Block and pcguard (edge) tiers on gdk diff stdout under the three
# engines, covering the block and edge probe renderings too.
engine-check: build
	@rm -rf _build/engine-check && mkdir -p _build/engine-check
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f path -b 6000 \
	  --jsonl _build/engine-check/interp.jsonl > _build/engine-check/interp.out
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f path -b 6000 \
	  --engine fused --jsonl _build/engine-check/fused.jsonl \
	  > _build/engine-check/fused.out
	diff _build/engine-check/interp.out _build/engine-check/fused.out
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f path -b 6000 \
	  --shards 2 --sync-interval 512 > _build/engine-check/sh-interp.out
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f path -b 6000 \
	  --shards 2 --sync-interval 512 --engine fused \
	  > _build/engine-check/sh-fused.out
	diff _build/engine-check/sh-interp.out _build/engine-check/sh-fused.out
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f path -b 6000 \
	  --engine native --emit-cache _build/engine-check/emit-cache \
	  --metrics _build/engine-check/native-cold.metrics.json \
	  > _build/engine-check/native-cold.out
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f path -b 6000 \
	  --engine native --emit-cache _build/engine-check/emit-cache \
	  --metrics _build/engine-check/native-warm.metrics.json \
	  > _build/engine-check/native-warm.out
	diff _build/engine-check/interp.out _build/engine-check/native-cold.out
	diff _build/engine-check/interp.out _build/engine-check/native-warm.out
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f path -b 6000 \
	  --shards 2 --sync-interval 512 --engine native \
	  --emit-cache _build/engine-check/emit-cache \
	  > _build/engine-check/sh-native.out
	diff _build/engine-check/sh-interp.out _build/engine-check/sh-native.out
	PATHFUZZ_EMIT_FAIL=1 ./_build/default/bin/pathfuzz.exe fuzz -s cflow \
	  -f path -b 6000 --engine native \
	  --metrics _build/engine-check/native-fail.metrics.json \
	  > _build/engine-check/native-fail.out
	diff _build/engine-check/interp.out _build/engine-check/native-fail.out
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f path -b 6000 \
	  --engine native --emit-cache _build/engine-check/emit-cache \
	  --jsonl _build/engine-check/native.jsonl > /dev/null
	for e in interp fused native; do \
	  sed -E 's/"wall_s": ?[-0-9.e+]+//g' _build/engine-check/$$e.jsonl \
	    > _build/engine-check/$$e.events || exit 1; \
	done
	grep -q '"calibration"' _build/engine-check/interp.events
	diff _build/engine-check/interp.events _build/engine-check/fused.events
	diff _build/engine-check/interp.events _build/engine-check/native.events
	for e in interp fused native; do \
	  ./_build/default/bin/pathfuzz.exe fuzz -s sqlite3 -f pathafl -b 20000 \
	    --engine $$e --emit-cache _build/engine-check/emit-cache \
	    --jsonl _build/engine-check/pa-$$e.jsonl \
	    > _build/engine-check/pa-$$e.out || exit 1; \
	  ./_build/default/bin/pathfuzz.exe fuzz -s sqlite3 -f pathafl -b 20000 \
	    --engine $$e --emit-cache _build/engine-check/emit-cache \
	    --shards 2 --sync-interval 512 \
	    --jsonl _build/engine-check/pa-sh-$$e.jsonl \
	    > _build/engine-check/pa-sh-$$e.out || exit 1; \
	  for r in pa pa-sh; do \
	    sed -E 's/"wall_s": ?[-0-9.e+]+//g' _build/engine-check/$$r-$$e.jsonl \
	      > _build/engine-check/$$r-$$e.events || exit 1; \
	  done; \
	done
	for e in fused native; do \
	  for r in pa pa-sh; do \
	    diff _build/engine-check/$$r-interp.out _build/engine-check/$$r-$$e.out \
	      || exit 1; \
	    diff _build/engine-check/$$r-interp.events \
	      _build/engine-check/$$r-$$e.events || exit 1; \
	  done; \
	done
	for f in block pcguard; do \
	  for e in interp fused native; do \
	    ./_build/default/bin/pathfuzz.exe fuzz -s gdk -f $$f -b 6000 \
	      --engine $$e --emit-cache _build/engine-check/emit-cache \
	      > _build/engine-check/$$f-$$e.out || exit 1; \
	  done; \
	  for e in fused native; do \
	    diff _build/engine-check/$$f-interp.out _build/engine-check/$$f-$$e.out \
	      || exit 1; \
	  done; \
	done
	python3 -c "import json; \
	  cold = json.load(open('_build/engine-check/native-cold.metrics.json')); \
	  warm = json.load(open('_build/engine-check/native-warm.metrics.json')); \
	  fail = json.load(open('_build/engine-check/native-fail.metrics.json')); \
	  assert fail['emit.fallbacks'] > 0, 'forced emit failure not counted'; \
	  print('engine-check: emit compile wall cold %.3fs -> warm %.3fs' \
	    % (cold['emit.compile_s'], warm['emit.compile_s'])); \
	  assert cold['emit.fallbacks'] > 0 or ( \
	    warm['emit.cache_misses'] == 0 and warm['emit.cache_hits'] > 0 \
	    and warm['emit.fallbacks'] == 0), \
	    'warm native run was not served 100% from the emit cache'"
	@echo "engine-check: trajectories identical across engines"

# Introspection-perturbation smoke: recording a span trace and the
# engine-metrics registry must be trajectory-invisible — fuzz stdout is
# byte-identical with and without --trace/--metrics, sequentially and
# sharded, under the interpreter, the fused engine and the native
# engine — and the trace files must parse as valid Chrome trace-event
# JSON.
profile-check: build
	@rm -rf _build/profile-check && mkdir -p _build/profile-check
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f path -b 6000 \
	  > _build/profile-check/plain.out
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f path -b 6000 \
	  --trace _build/profile-check/seq.trace.json \
	  --metrics _build/profile-check/seq.metrics.json \
	  > _build/profile-check/traced.out
	diff _build/profile-check/plain.out _build/profile-check/traced.out
	for e in fused native; do \
	  ./_build/default/bin/pathfuzz.exe fuzz -s cflow -f path -b 6000 \
	    --engine $$e --emit-cache _build/profile-check/emit-cache \
	    > _build/profile-check/$$e.out || exit 1; \
	  ./_build/default/bin/pathfuzz.exe fuzz -s cflow -f path -b 6000 \
	    --engine $$e --emit-cache _build/profile-check/emit-cache \
	    --trace _build/profile-check/$$e.trace.json \
	    --metrics _build/profile-check/$$e.metrics.json \
	    > _build/profile-check/$$e-traced.out || exit 1; \
	  diff _build/profile-check/$$e.out _build/profile-check/$$e-traced.out \
	    || exit 1; \
	done
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f path -b 6000 \
	  --shards 2 --sync-interval 512 > _build/profile-check/sh.out
	./_build/default/bin/pathfuzz.exe fuzz -s cflow -f path -b 6000 \
	  --shards 2 --sync-interval 512 \
	  --trace _build/profile-check/sh.trace.json \
	  --metrics _build/profile-check/sh.metrics.json \
	  > _build/profile-check/sh-traced.out
	diff _build/profile-check/sh.out _build/profile-check/sh-traced.out
	for f in seq fused native sh; do \
	  python3 -m json.tool _build/profile-check/$$f.trace.json > /dev/null \
	    || exit 1; \
	  python3 -m json.tool _build/profile-check/$$f.metrics.json > /dev/null \
	    || exit 1; \
	done
	@echo "profile-check: tracing is trajectory-invisible; trace/metrics files are valid JSON"

# Paper-matrix engine smoke: `tables` runs on the fused engine unless
# told otherwise, and the engine is trajectory-invisible, so a small
# matrix rendered under --engine interp and under the default must print
# byte-identical stdout.
tables-check: build
	@rm -rf _build/tables-check && mkdir -p _build/tables-check
	PATHCOV_FAST=1 PATHCOV_BUDGET=2400 PATHCOV_TRIALS=2 \
	  ./_build/default/bin/pathfuzz.exe tables --engine interp \
	  > _build/tables-check/interp.out
	PATHCOV_FAST=1 PATHCOV_BUDGET=2400 PATHCOV_TRIALS=2 \
	  ./_build/default/bin/pathfuzz.exe tables \
	  > _build/tables-check/default.out
	diff _build/tables-check/interp.out _build/tables-check/default.out
	@echo "tables-check: tables identical under interp and the default engine"

# Bechamel micro-benchmarks (one per table/figure of the paper).
micro: build
	dune exec bench/main.exe

# The paper's result tables (fast profile).
tables: build
	./_build/default/bin/pathfuzz.exe tables --fast

clean:
	dune clean
