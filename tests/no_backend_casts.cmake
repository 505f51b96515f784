# Fails when a file under SRC_DIR casts to ContainerBackend, FramedBackend
# or FileBackend. Such a cast finds nothing, without an error, as soon as
# any layer sits above the one it looks for; a consumer takes the layer it
# needs from the code that built the stack (BackendStack, src/mhd/repo/).
#
#   cmake -DSRC_DIR=<repo>/src -P no_backend_casts.cmake
file(GLOB_RECURSE sources "${SRC_DIR}/*.h" "${SRC_DIR}/*.cpp")
set(hits "")
foreach(source IN LISTS sources)
  file(STRINGS "${source}" lines
       REGEX "dynamic_cast<[^>]*(ContainerBackend|FramedBackend|FileBackend)")
  foreach(line IN LISTS lines)
    string(APPEND hits "\n  ${source}: ${line}")
  endforeach()
endforeach()
if(hits)
  message(FATAL_ERROR "backend casts under ${SRC_DIR}:${hits}")
endif()
