# trace_tool round trip: capture Goblet (horizontal) to a .ctrace,
# then check the `stats` and `replay` lines against the figures of the
# same frame, that `stats` rejects a truncated copy, and that `replay`
# rejects the trace under another scene.
#
# Usage: cmake -DTRACE_TOOL=<trace_tool> -DWORK_DIR=<dir>
#              -P trace_tool_roundtrip.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace "${WORK_DIR}/goblet.ctrace")

# Run trace_tool with ARGN; fail unless it exits 0 and its stdout
# matches the regex EXPECT.
function(expect_line expect)
    execute_process(COMMAND "${TRACE_TOOL}" ${ARGN}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "trace_tool ${ARGN} exited ${rc}:\n${err}")
    endif()
    if(NOT out MATCHES "${expect}")
        message(FATAL_ERROR
                "trace_tool ${ARGN} printed:\n${out}\nexpected: ${expect}")
    endif()
endfunction()

expect_line("captured 1577872 texel accesses from Goblet"
            capture goblet "${trace}" horizontal)
expect_line("\naccesses +1577872\n" stats "${trace}")
expect_line("^32KB/32B/2way: 1577872 accesses, 26404 misses \\(1\\.67%\\), 22768 cold\n$"
            replay goblet "${trace}" 32768 32 2)
expect_line("^16KB/128B/full: 1577872 accesses, 9678 misses \\(0\\.61%\\), 5868 cold\n$"
            replay goblet "${trace}" 16384 128 full)

# A copy cut inside its payload is rejected with the reader's offset.
set(cut "${WORK_DIR}/cut.ctrace")
execute_process(COMMAND head -c 4096 "${trace}" OUTPUT_FILE "${cut}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cannot write the truncated copy ${cut}")
endif()
execute_process(COMMAND "${TRACE_TOOL}" stats "${cut}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "offset 4096: truncated payload")
    message(FATAL_ERROR
            "stats on a truncated trace exited ${rc}:\n${out}${err}")
endif()

# Under Town the trace's texels lie past the levels of Town's smaller
# texture 0: the replay names the first such record and exits 1.
execute_process(COMMAND "${TRACE_TOOL}" replay town "${trace}" 32768 64 2
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES
   "trace record outside the scene: texture 0, level [0-9]+, texel \\([0-9]+, [0-9]+\\); ")
    message(FATAL_ERROR
            "replay town of a Goblet trace exited ${rc}:\n${out}${err}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
