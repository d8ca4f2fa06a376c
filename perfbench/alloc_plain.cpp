// Untraced build: the global allocator is left alone, so the end-to-end
// numbers are measured on the same allocation path users run.
#include "alloc_count.h"

namespace perfbench {

bool alloc_counting() { return false; }
std::uint64_t alloc_calls() { return 0; }

}  // namespace perfbench
