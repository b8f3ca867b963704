# Build file of the end-to-end benchmark. run.py configures the
# repository's own top-level CMake project with this file injected via
# CMAKE_PROJECT_INCLUDE, so the simulator libraries build exactly as in
# the main build, and then builds only the `perfbench` target below.
# It is included right after project(): the culpeo_* library targets
# are declared later by src/, which CMake allows for link names.
add_executable(perfbench
    ${CMAKE_CURRENT_LIST_DIR}/main.cpp
    ${CMAKE_CURRENT_LIST_DIR}/bench.cpp
    ${CMAKE_CURRENT_LIST_DIR}/fleet.cpp
    ${CMAKE_CURRENT_LIST_DIR}/bakeoff.cpp
    ${CMAKE_CURRENT_LIST_DIR}/vsafe_sweep.cpp)
set_target_properties(perfbench PROPERTIES
    CXX_STANDARD 20
    CXX_STANDARD_REQUIRED ON
    CXX_EXTENSIONS OFF
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR})
target_compile_options(perfbench PRIVATE -Wall -Wextra)
target_compile_definitions(perfbench PRIVATE PERFBENCH_CONFIG="$<CONFIG>")
target_link_libraries(perfbench PRIVATE
    culpeo_fleet culpeo_sched culpeo_harness culpeo_core culpeo_mcu
    culpeo_env culpeo_batch culpeo_apps culpeo_telemetry culpeo_util)
