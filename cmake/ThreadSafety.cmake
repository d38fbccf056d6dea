# Clang thread-safety analysis as a hard gate (docs/STATIC_ANALYSIS.md,
# "Thread-safety annotations").
#
# The shared-state structures (util::ThreadPool, obs::MetricsRegistry /
# Histogram stripes / TraceLog, the proactive allocator's SearchRuntime)
# carry clang capability annotations via src/util/thread_annotations.hpp.
# With this gate on, any access to an AEVA_GUARDED_BY field outside its
# lock — on *any* path, not just the ones a test happens to exercise —
# fails the build. This is the static side of the race-detection pair;
# the TSan ctest job is the dynamic side, and CI runs both
# (-DAEVA_SANITIZE=thread plus this gate in the same build).
#
# Select with -DAEVA_THREAD_SAFETY=<mode>:
#
#   AUTO  (default) enable when the compiler is clang, silently skip
#         otherwise — gcc has no thread-safety analysis, and the
#         annotation macros already expand to nothing there.
#   ON    require the analysis: clang gets the flags, a non-clang
#         compiler is a configure-time error (what the CI `analyze` job
#         sets, so the gate cannot be skipped by a toolchain mixup).
#   OFF   never add the flags (escape hatch while iterating on clang).
#
# The warnings are promoted with -Werror=thread-safety independently of
# AEVA_WERROR: an unproven lock contract is never just a warning.

set(AEVA_THREAD_SAFETY "AUTO" CACHE STRING
    "Clang -Wthread-safety gate: AUTO | ON | OFF")
set_property(CACHE AEVA_THREAD_SAFETY PROPERTY STRINGS AUTO ON OFF)

if(AEVA_THREAD_SAFETY STREQUAL "OFF")
  # explicitly disabled
elseif(CMAKE_CXX_COMPILER_ID MATCHES "Clang")
  add_compile_options(-Wthread-safety -Werror=thread-safety)
  message(STATUS "aeva: clang thread-safety analysis enabled "
                 "(-Wthread-safety -Werror=thread-safety)")
elseif(AEVA_THREAD_SAFETY STREQUAL "ON")
  message(FATAL_ERROR
    "AEVA_THREAD_SAFETY=ON requires clang (compiler is "
    "${CMAKE_CXX_COMPILER_ID}); the thread-safety analysis only exists "
    "there. Configure with -DCMAKE_CXX_COMPILER=clang++ or use AUTO.")
elseif(NOT AEVA_THREAD_SAFETY STREQUAL "AUTO")
  message(FATAL_ERROR "Unknown AEVA_THREAD_SAFETY value: "
                      "${AEVA_THREAD_SAFETY} (expected AUTO, ON, or OFF)")
endif()
