# ctest driver (cmake -P): the write-ordering gate. Clean runs must exit 0
# on every policy; each deliberately broken run must exit 1 (2 is a usage
# error) and name the rule it breaks on stderr; a run whose trace ring
# dropped events must fail rather than pass unchecked. Each case is the
# expected exit status, the rule (or message) stderr must contain ("-" for
# none), the program and its arguments, separated by '|'.
#
#   cmake -DTOOLS=<dir of the tools> -DWORK=<scratch dir> -P ordering_gate.cmake
set(syncer "metadata=delayed|syncer=1|syncer_interval=100ms|syncer_max_age=100ms")
set(postmark "--workload=postmark|--files=150|--dirs=4|--txns=400")
set(cases "")
foreach(fs ffs c-ffs)
  foreach(policy sync delayed)
    list(APPEND cases
      "0|-|cffs_run|fs=${fs}|metadata=${policy}|--files=100|--dirs=4|--check-ordering"
      "0|-|cffs_run|fs=${fs}|metadata=${policy}|${postmark}|--check-ordering")
  endforeach()
  # Background write-back must not reorder metadata: the syncer flushes the
  # full dirty set as one commit epoch (DESIGN.md §10).
  list(APPEND cases
    "0|-|cffs_run|fs=${fs}|${syncer}|--files=100|--dirs=4|--check-ordering"
    "0|-|cffs_run|fs=${fs}|${syncer}|${postmark}|--check-ordering"
    # The rules must hold under multi-tenant interleaving too.
    "0|-|cffs_run|fs=${fs}|${syncer}|--workload=mt|--clients=16|--ops=48|--check-ordering"
    # And on flash, whose commit epochs come from the same device command
    # path in FCFS order, one epoch per window.
    "0|-|cffs_run|fs=${fs}|device=flash|metadata=sync|--files=100|--dirs=4|--check-ordering"
    "0|-|cffs_run|fs=${fs}|device=flash|extent_alloc=1|${syncer}|${postmark}|--check-ordering")
endforeach()
list(APPEND cases
  # C-FFS with neither technique writes every name the conventional way,
  # through the same ordered writes as FFS.
  "0|-|cffs_run|fs=conventional|metadata=sync|--files=100|--dirs=4|--check-ordering"
  "0|-|cffs_run|fs=conventional|${syncer}|${postmark}|--check-ordering"
  # The cross-shard rename protocol's happens-before rules.
  "0|-|cffs_run|shards=4|--workload=xshard|--txns=8|--check-ordering"
  # Mutated runs must be convicted of the rule they break.
  "1|R-CREATE|cffs_run|fs=ffs|metadata=sync|--files=100|--dirs=4|--check-ordering|--mutate=defer-inode-init"
  "1|R-CREATE|cffs_run|fs=conventional|metadata=sync|--files=100|--dirs=4|--check-ordering|--mutate=defer-inode-init"
  "1|R-CREATE|cffs_run|fs=ffs|${syncer}|--files=100|--dirs=4|--check-ordering|--mutate=syncer-reorder"
  # On flash the 100-file smallfile run ends before the syncer's first
  # 100 ms deadline, so its mutated flush never runs; postmark reaches it.
  "1|R-CREATE|cffs_run|fs=ffs|device=flash|extent_alloc=1|${syncer}|${postmark}|--check-ordering|--mutate=syncer-reorder"
  "1|R-XCOMMIT|cffs_run|shards=2|--workload=xshard|--txns=8|--check-ordering|--mutate=xshard-skip-commit-sync"
  "1|R-XCOMMIT|cffs_run|shards=2|--workload=xshard|--txns=8|--check-ordering|--mutate=xshard-early-clear"
  # A ring too small for the run drops events: R-LOST cannot run, so the
  # run fails instead of passing as clean.
  "1|--capacity|cffs_run|fs=c-ffs|--workload=postmark|--files=400|--dirs=4|--txns=2000|--check-ordering"
  # The offline round trip: record a run, then check the record.
  "0|-|cffs_run|fs=c-ffs|--files=50|--dirs=2|--record-out=cffs.record.json"
  "0|-|cffs_ordercheck|--trace=cffs.record.json"
)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(failures "")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" argv "${case}")
  list(POP_FRONT argv want rule program)
  execute_process(
    COMMAND "${TOOLS}/${program}" ${argv}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT status STREQUAL want OR
     (NOT rule STREQUAL "-" AND NOT err MATCHES "${rule}"))
    string(APPEND failures
      "\n  ${case}: want exit ${want} and \"${rule}\", got exit ${status}, "
      "stderr \"${err}\"")
  endif()
endforeach()
if(failures)
  message(FATAL_ERROR "ordering gate failed:${failures}")
endif()
