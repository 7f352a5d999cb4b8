# Runs one program and compares the SHA-256 digest of its stdout with
# the digest recorded in a golden file (stderr is not compared).
#
#   cmake -DEXE=<program> "-DARGS=<arguments>" -DGOLDEN=<file>
#         [-DRECORD=ON] -P check_stdout.cmake
#
# With RECORD=ON the digest is written to GOLDEN instead of compared.

foreach(var EXE GOLDEN)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_stdout.cmake needs -D${var}=...")
    endif()
endforeach()
separate_arguments(args UNIX_COMMAND "${ARGS}")

execute_process(COMMAND "${EXE}" ${args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} ${ARGS} exited with ${rc}:\n${err}")
endif()
string(SHA256 digest "${out}")

if(RECORD)
    file(WRITE "${GOLDEN}" "${digest}\n")
    message(STATUS "recorded ${digest} in ${GOLDEN}")
    return()
endif()

file(STRINGS "${GOLDEN}" want REGEX "^[0-9a-f]+$" LIMIT_COUNT 1)
if(NOT digest STREQUAL want)
    message(FATAL_ERROR
        "stdout of ${EXE} ${ARGS} changed: sha256 ${digest}, "
        "golden ${want} (${GOLDEN}). If the change to simulated output "
        "is intended, re-record the digest (tests/golden/README.md) "
        "and say why in CHANGES.md.")
endif()
message(STATUS "stdout sha256 ${digest} matches ${GOLDEN}")
