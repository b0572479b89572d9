# Smoke test for treesim_cli, run by ctest:
#   cmake -DCLI=<binary> -DTMP=<scratch dir> -P cli_smoke_test.cmake
# Exercises the full command surface on a small generated dataset and fails
# on any non-zero exit or missing expected output.

function(run_cli expect_substring)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "treesim_cli ${ARGN} failed (${code}): ${err}")
  endif()
  if(NOT "${expect_substring}" STREQUAL "" AND
     NOT out MATCHES "${expect_substring}")
    message(FATAL_ERROR
      "treesim_cli ${ARGN}: expected output matching '${expect_substring}', "
      "got: ${out}")
  endif()
endfunction()

# Runs a command that must be rejected with a usage error: exit code 1 (not
# a crash such as 134 from an abort) and a message matching
# `expect_substring` on stderr.
function(run_cli_rejects expect_substring)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR
      "treesim_cli ${ARGN}: expected exit 1, got ${code}: ${err}")
  endif()
  if(NOT err MATCHES "${expect_substring}")
    message(FATAL_ERROR
      "treesim_cli ${ARGN}: expected error matching '${expect_substring}', "
      "got: ${err}")
  endif()
endfunction()

file(MAKE_DIRECTORY ${TMP})
set(data ${TMP}/cli_smoke.trees)
set(xml ${TMP}/cli_smoke.xml)

run_cli("build_type" --version)
run_cli("git_sha" version)
run_cli("wrote" generate --kind=dblp --count=80 --out=${data} --seed=5)
run_cli("trees: +80" stats --data=${data})
run_cli("exact edit distance: +3"
        distance "--a=a{b{c d} b{c d} e}" "--b=a{b{c d b{e}} c d e}")
run_cli("cost 2" mapping "--a=a{b c}" "--b=a{x c d}")
run_cli("2 operations" patch "--a=a{b c}" "--b=a{x c d}")
run_cli("matches within distance" range --data=${data}
        "--query=article{author{auth0} title{ttl1} year{y0} journal{venue0}}"
        --tau=3)
run_cli("nearest neighbors" knn --data=${data}
        "--query=article{author{auth0} title{ttl1} year{y0} journal{venue0}}"
        --k=3)
run_cli("pairs within distance" join --data=${data} --tau=1)
run_cli("cost=" cluster --data=${data} --k=3)

file(WRITE ${xml}
  "<dblp><article><author>A</author><title>T</title></article>"
  "<www><author>B</author><url/></www></dblp>")
run_cli("imported 2 records" import --xml=${xml} --out=${TMP}/imported.trees)
run_cli("trees: +2" stats --data=${TMP}/imported.trees)

# Error paths exit non-zero.
run_cli_rejects("INVALID_ARGUMENT.*--k must be in \\[1, 2147483647\\], got 0"
                knn --data=${data} "--query=article{author{auth0}}" --k=0)
run_cli_rejects("INVALID_ARGUMENT.*--k must be in \\[1, 2147483647\\], got -3"
                knn --data=${data} "--query=article{author{auth0}}" --k=-3)
run_cli_rejects("INVALID_ARGUMENT.*--k must be in \\[1, 80\\]"
                cluster --data=${data} --k=0)
run_cli_rejects("INVALID_ARGUMENT.*--k must be in \\[1, 80\\]"
                cluster --data=${data} --k=81)

# Numeric flags are range-checked before they narrow to int: a value below
# the bound or past INT_MAX is a usage error, not a CHECK abort or a
# silently wrapped value.
run_cli_rejects("INVALID_ARGUMENT.*--count must be in \\[1, 2147483647\\], got -3"
                generate --count=-3 --out=${TMP}/rejected.trees)
run_cli_rejects("INVALID_ARGUMENT.*--count.*got 3000000000"
                generate --count=3000000000 --out=${TMP}/rejected.trees)
run_cli_rejects("INVALID_ARGUMENT.*--labels must be in \\[1, 2147483647\\], got 0"
                generate --labels=0 --out=${TMP}/rejected.trees)
run_cli_rejects("INVALID_ARGUMENT.*--q must be in \\[2, 20\\], got 1"
                distance "--a=a{b}" "--b=a{c}" --q=1)
run_cli_rejects("INVALID_ARGUMENT.*--q must be in \\[2, 20\\], got 0"
                distance "--a=a{b}" "--b=a{c}" --q=0)
run_cli_rejects("INVALID_ARGUMENT.*--q must be in \\[2, 20\\], got 21"
                distance "--a=a{b}" "--b=a{c}" --q=21)
run_cli_rejects("INVALID_ARGUMENT.*--tau must be in \\[0, 2147483647\\], got 4294967295"
                range --data=${data} "--query=article{author{auth0}}"
                --tau=4294967295)
run_cli_rejects("INVALID_ARGUMENT.*--tau.*got 99999999999"
                range --data=${data} "--query=article{author{auth0}}"
                --tau=99999999999)
run_cli_rejects("INVALID_ARGUMENT.*--tau.*got -1" join --data=${data} --tau=-1)
run_cli_rejects("INVALID_ARGUMENT.*--k.*got 3000000000"
                knn --data=${data} "--query=article{author{auth0}}"
                --k=3000000000)
# --threads is checked before any pool is built.
run_cli_rejects("INVALID_ARGUMENT.*--threads must be in \\[0, 2147483647\\], got -1"
                range --data=${data} "--query=article{author{auth0}}"
                --threads=-1)
run_cli_rejects("INVALID_ARGUMENT.*--threads.*got 3000000000"
                join --data=${data} --tau=1 --threads=3000000000)

execute_process(COMMAND ${CLI} stats --data=/no/such/file
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "stats on a missing file should fail")
endif()
execute_process(COMMAND ${CLI} bogus-command
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "unknown command should fail")
endif()

message(STATUS "cli smoke test passed")
