# `epp_check replay --out-dir DIR` replaces what a replay writes (run-a/,
# run-b/, the default diff file) and nothing else in DIR:
#
#   cmake -DEPP_CHECK=<binary> -DOUT_DIR=<dir> -P replay_keeps_out_dir.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
file(WRITE "${OUT_DIR}/keep/notes.txt" "sentinel\n")
file(WRITE "${OUT_DIR}/run-a/stale.txt" "left by an earlier replay\n")
execute_process(
  COMMAND "${EPP_CHECK}" replay --check-stdout --out-dir "${OUT_DIR}"
          -- "${CMAKE_COMMAND}" -E echo replayed
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "replay exited ${status}")
endif()
if(NOT EXISTS "${OUT_DIR}/keep/notes.txt")
  message(FATAL_ERROR "replay deleted ${OUT_DIR}/keep/notes.txt, "
                      "which it did not write")
endif()
if(EXISTS "${OUT_DIR}/run-a/stale.txt")
  message(FATAL_ERROR "replay kept a stale file in ${OUT_DIR}/run-a")
endif()
