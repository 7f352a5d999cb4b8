# Runs one bench at --jobs 1 and at --jobs 4 and requires the two JSON
# reports to be byte-identical once the values of "mapper_hits" and
# "mapper_misses" are blanked: the sweep shares one mapping-search memo
# across threads, so only its hit/miss split may depend on thread
# interleaving. Every simulated field, and every other counter, must
# not.
#
#   cmake -DEXE=<program> "-DARGS=<arguments>" -DOUT=<path prefix>
#         -P check_jobs.cmake
#
# The reports are written to <OUT>.jobs1.json and <OUT>.jobs4.json.

foreach(var EXE OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_jobs.cmake needs -D${var}=...")
    endif()
endforeach()
separate_arguments(args UNIX_COMMAND "${ARGS}")

foreach(jobs 1 4)
    set(json "${OUT}.jobs${jobs}.json")
    file(REMOVE "${json}")
    execute_process(
        COMMAND "${EXE}" ${args} --jobs ${jobs} --json "${json}"
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${EXE} ${ARGS} --jobs ${jobs} exited with ${rc}:\n${err}")
    endif()
    file(READ "${json}" report)
    string(REGEX REPLACE "\"(mapper_hits|mapper_misses)\": *[0-9]+"
        "\"\\1\": _" report${jobs} "${report}")
endforeach()

if(NOT report1 STREQUAL report4)
    message(FATAL_ERROR
        "${EXE} ${ARGS}: the JSON at --jobs 1 and --jobs 4 differs "
        "beyond the mapper counters; diff ${OUT}.jobs1.json and "
        "${OUT}.jobs4.json.")
endif()
message(STATUS "${EXE} ${ARGS}: --jobs 1 and --jobs 4 JSON match")
