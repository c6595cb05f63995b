# Run a command and fail unless it exits with an expected code.
#
#   cmake -DEXPECT=<code> -DCOMMAND=<program>|<arg>|... -P expect_exit.cmake
#
# Arguments are separated by '|' so that a whole command line passes
# through one -D definition.
string(REPLACE "|" ";" argv "${COMMAND}")
execute_process(COMMAND ${argv}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT)
    list(JOIN argv " " shown)
    message(FATAL_ERROR "'${shown}' exited ${code}, expected ${EXPECT}\n${err}")
endif()
