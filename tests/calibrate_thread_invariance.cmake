# `epp_calibrate` writes the same artifact bytes whatever its thread
# count, including the verify self-check it runs on what it wrote:
#
#   cmake -DEPP_CALIBRATE=<binary> -DOUT_DIR=<dir> -P calibrate_thread_invariance.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
foreach(threads 1 4)
  execute_process(
    COMMAND "${EPP_CALIBRATE}" --threads ${threads}
            --out "${OUT_DIR}/threads-${threads}.epp"
    OUTPUT_QUIET
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "epp_calibrate --threads ${threads} exited ${status}")
  endif()
endforeach()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${OUT_DIR}/threads-1.epp" "${OUT_DIR}/threads-4.epp"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "epp_calibrate --threads 1 and --threads 4 wrote "
                      "different artifacts in ${OUT_DIR}")
endif()
