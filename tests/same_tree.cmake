# Fails unless directories A and B hold the same files with the same bytes:
# a command that was refused changed nothing.
#
#   cmake -DA=<dir> -DB=<dir> -P same_tree.cmake
file(GLOB_RECURSE a RELATIVE "${A}" "${A}/*")
file(GLOB_RECURSE b RELATIVE "${B}" "${B}/*")
list(SORT a)
list(SORT b)
if(NOT a STREQUAL b)
  message(FATAL_ERROR "${A} and ${B} hold different files:\n${a}\n${b}")
endif()
foreach(f IN LISTS a)
  file(SHA256 "${A}/${f}" ha)
  file(SHA256 "${B}/${f}" hb)
  if(NOT ha STREQUAL hb)
    message(FATAL_ERROR "${A}/${f} changed")
  endif()
endforeach()
