# --drop/--dup/--max-delay reach a --full-gc run's network, and the
# collector stays safe under them.  On the P5xD20 mesh:
#  - duplicated and delayed traffic changes the run but not its end: the
#    full GC still reclaims every replica ("converged=yes": 0 objects);
#  - adding 20% loss changes the run again and stays safe (the final deep
#    audit reads OK); it does not converge, since no detection of the
#    100-link cycle survives that loss (see CHANGES.md).
#
#   cmake -DCLI=path/to/example_sim_cli -P sim_cli_lossy.cmake
set(shape --processes 5 --deps 20 --mode ours --full-gc)
set(outputs "")
foreach(faults "" "--dup;0.1;--max-delay;4" "--drop;0.2;--dup;0.1;--max-delay;4")
  execute_process(COMMAND ${CLI} ${shape} ${faults}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  message("sim_cli ${faults}:\n${out}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sim_cli ${faults} exited ${rc}")
  endif()
  if(NOT out MATCHES "health: OK")
    message(FATAL_ERROR "sim_cli ${faults}: the final audit is not clean")
  endif()
  list(APPEND outputs "${out}")
endforeach()
list(GET outputs 0 reliable)
list(GET outputs 1 jittery)
list(GET outputs 2 lossy)
if(reliable STREQUAL jittery OR reliable STREQUAL lossy OR jittery STREQUAL lossy)
  message(FATAL_ERROR "a fault flag did not reach the run")
endif()
if(NOT jittery MATCHES "converged=yes")
  message(FATAL_ERROR "the duplicated/delayed full GC left garbage behind")
endif()
