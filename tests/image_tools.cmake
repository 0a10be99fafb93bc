# ctest driver (cmake -P): the image tools end to end. On each kind of file
# system cffs_mkfs makes an image, cffs_populate fills it, cffs_fsck finds
# it CLEAN, cffs_debug dumps it and cffs_fsck --repair leaves it clean, each
# exiting 0. Then cffs_fsck, cffs_populate and cffs_debug must each reject a
# file that is no image and an image cut short, and cffs_debug a bad
# command list on a good image: exit 2 with a message and no output.
#
#   cmake -DTOOLS=<dir of the tools> -DWORK=<scratch dir> -P image_tools.cmake
set(machines
  "fs=ffs"
  "fs=conventional"
  "fs=embedded-only"
  "fs=grouping-only"
  "fs=c-ffs"
  "fs=ffs|extent_alloc=1")

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(failures "")

# Runs TOOLS/<program> with the remaining arguments and records a failure
# unless it exits `want`. With want 0 and `stdout` not "-", stdout must
# contain `stdout`; with want 2, stderr must not be empty and stdout must.
function(run want stdout program)
  execute_process(
    COMMAND "${TOOLS}/${program}" ${ARGN}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT status STREQUAL want OR
     (want STREQUAL "0" AND NOT stdout STREQUAL "-" AND
      NOT out MATCHES "${stdout}") OR
     (want STREQUAL "2" AND (err STREQUAL "" OR NOT out STREQUAL "")))
    string(REPLACE ";" " " args "${ARGN}")
    string(APPEND failures "\n  ${program} ${args}: want exit ${want}, got "
           "exit ${status}, stdout \"${out}\", stderr \"${err}\"")
    set(failures "${failures}" PARENT_SCOPE)
  endif()
endfunction()

set(index 0)
foreach(machine IN LISTS machines)
  string(REPLACE "|" ";" tokens "${machine}")
  set(image "image${index}.img")
  run(0 - cffs_mkfs ${image} ${tokens} --mb=64)
  run(0 - cffs_populate ${image} --files=50)
  run(0 CLEAN cffs_fsck ${image})
  run(0 "=== dir ===" cffs_debug ${image} sb tree alloc frag dir /demo0)
  run(0 CLEAN cffs_fsck ${image} --repair)
  math(EXPR index "${index} + 1")
endforeach()

# The whole command list is checked before the image is read.
run(2 - cffs_debug image0.img sb bogus)
run(2 - cffs_debug image0.img sb dir)

# Unusable images: garbage, and the first image cut in half mid-chunk.
file(WRITE "${WORK}/garbage.img" "this is not an image\n")
if(EXISTS "${WORK}/image0.img")
  file(SIZE "${WORK}/image0.img" size)
  math(EXPR half "${size} / 2")
  execute_process(
    COMMAND head -c ${half} image0.img
    WORKING_DIRECTORY "${WORK}"
    OUTPUT_FILE "${WORK}/truncated.img")
endif()
foreach(image garbage.img truncated.img)
  run(2 - cffs_fsck ${image})
  run(2 - cffs_populate ${image})
  run(2 - cffs_debug ${image})
endforeach()

if(failures)
  message(FATAL_ERROR "image tools failed:${failures}")
endif()
