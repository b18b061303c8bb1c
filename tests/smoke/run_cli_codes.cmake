# Exit-code contract smoke, run by ctest: every failure class the CLI
# documents in `glouvain --help` (the util::Status table) must come back
# as that exact process exit code from a real invocation. Guards the
# code table in usage()/README against drifting from util::exit_code.
#
# Expects: GLOUVAIN, WORK_DIR.
foreach(var GLOUVAIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_cli_codes.cmake: ${var} not set")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(graph "${WORK_DIR}/cli_codes_graph.bin")

# expect(<code> <description> <arg...>): run glouvain, require the code.
function(expect code description)
  execute_process(COMMAND "${GLOUVAIN}" ${ARGN}
    RESULT_VARIABLE rv OUTPUT_QUIET ERROR_QUIET)
  if(NOT rv EQUAL ${code})
    message(FATAL_ERROR
      "${description}: expected exit ${code}, got ${rv} (glouvain ${ARGN})")
  endif()
  message(STATUS "ok [${code}] ${description}")
endfunction()

# 0 ok
expect(0 "help text" help)
expect(0 "generate a graph"
  generate --family pokec --scale 0.02 --seed 3 --out "${graph}")
expect(0 "stats on a valid graph" stats --in "${graph}")

# 1 usage error
expect(1 "no command" )
expect(1 "unknown command" frobnicate)
expect(1 "churn without --out" churn --in "${graph}")
expect(1 "retired color command" color --in "${graph}")

# 0 ok: the device-backend matrix documented in --help. `vector` on a
# machine without AVX2 silently runs the scalar-emulation twins, so all
# three names succeed everywhere.
expect(0 "detect with --device scalar"
  detect --in "${graph}" --device scalar --out "${WORK_DIR}/cli_scalar.part")
expect(0 "detect with --device vector"
  detect --in "${graph}" --device vector --out "${WORK_DIR}/cli_vector.part")
expect(0 "detect with --device auto"
  detect --in "${graph}" --device auto --out "${WORK_DIR}/cli_auto.part")

# 2 invalid argument
expect(2 "detect without --in" detect)
expect(2 "unknown detect backend" detect --in "${graph}" --backend bogus)
expect(2 "unknown device backend" detect --in "${graph}" --device avx512)
# Flags a subcommand never declared are rejected, not ignored: a stale
# flag must not silently run a different program.
expect(2 "undeclared --table flag" detect --in "${graph}" --table cuckoo)
expect(2 "retired --table flag" detect --in "${graph}" --table occ)
expect(2 "retired --storage flag" detect --in "${graph}" --storage zcsr)
expect(2 "retired --algo flag" detect --in "${graph}" --algo seq)
expect(2 "retired --coloring flag" detect --in "${graph}" --coloring)
expect(2 "retired detect --shard-storage flag"
  detect --in "${graph}" --shard-storage mmap)
expect(2 "retired batch --shard-storage flag" batch --shard-storage plain)
expect(2 "undeclared stats flag" stats --in "${graph}" --verbose)
# Every backend assumes positive weights; the loaders reject others.
file(WRITE "${WORK_DIR}/cli_codes_negative.txt"
  "0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n2 3 -2\n")
expect(2 "negative edge weight"
  detect --in "${WORK_DIR}/cli_codes_negative.txt")
set(deltas "${WORK_DIR}/cli_codes.deltas")
file(WRITE "${deltas}" "batch 1\n+ 0 1\n")
expect(2 "unknown stream backend"
  stream --in "${graph}" --deltas "${deltas}" --backend bogus)
expect(2 "retired stream --hops flag"
  stream --in "${graph}" --deltas "${deltas}" --hops 1)
expect(2 "retired stream --no-closure flag"
  stream --in "${graph}" --deltas "${deltas}" --no-closure)
# Count flags reject a negative value, which would wrap to 2^32 - 1 or
# 2^64 - 1. The inputs named here are absent, so a check that ran
# after reading them would exit 3 instead.
expect(2 "negative detect --threads"
  detect --in "${WORK_DIR}/absent.bin" --threads -1)
expect(2 "negative batch --devices"
  batch --manifest "${WORK_DIR}/absent.manifest" --devices -1)
# batch checks a non-auto --backend against the detect registry before
# it opens the manifest.
expect(2 "unknown batch backend"
  batch --backend bogus --manifest "${WORK_DIR}/absent.manifest")
expect(2 "negative churn --epochs"
  churn --in "${WORK_DIR}/absent.bin" --out "${WORK_DIR}/absent.deltas"
  --epochs -1)
# Vertex id and label 2^32 - 1 (graph::kInvalidVertex): `id + 1` wraps
# to 0, so both inputs must be rejected before anything is sized by it.
file(WRITE "${WORK_DIR}/cli_codes_overflow.deltas" "batch 1\n+ 0 4294967295\n")
expect(2 "stream delta naming vertex 2^32-1"
  stream --in "${graph}" --deltas "${WORK_DIR}/cli_codes_overflow.deltas")
set(path3 "${WORK_DIR}/cli_codes_path3.txt")
file(WRITE "${path3}" "0 1\n1 2\n")
file(WRITE "${WORK_DIR}/cli_codes_overflow.labels" "0 4294967295\n1 0\n2 0\n")
expect(2 "churn labels naming community 2^32-1"
  churn --in "${path3}" --labels "${WORK_DIR}/cli_codes_overflow.labels"
  --out "${WORK_DIR}/cli_codes_overflow_out.deltas")

# The input type picks the storage: a .zg container runs through the
# compressed entry point and must give the same partition, byte for
# byte, as the plain graph it was compressed from.
set(zg "${WORK_DIR}/cli_codes_graph.zg")
expect(0 "compress to a .zg container" compress --in "${graph}" --out "${zg}")
expect(0 "detect on the plain graph"
  detect --in "${graph}" --device scalar --threads 2
  --out "${WORK_DIR}/cli_plain.part")
expect(0 "detect on the .zg container"
  detect --in "${zg}" --device scalar --threads 2
  --out "${WORK_DIR}/cli_zg.part")
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
  "${WORK_DIR}/cli_plain.part" "${WORK_DIR}/cli_zg.part" RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR ".zg partition differs from the plain-graph partition")
endif()
message(STATUS "ok .zg and plain partitions are byte-identical")

# 3 not found
expect(3 "detect on a missing graph" detect --in "${WORK_DIR}/absent.bin")
expect(3 "stream with missing deltas"
  stream --in "${graph}" --deltas "${WORK_DIR}/absent.deltas")
