// Heap-allocation counter shared by the two benchmark builds: the traced
// build interposes global operator new (alloc_counting.cpp), the untraced
// build reports nothing (alloc_plain.cpp).
#pragma once

#include <cstdint>

namespace perfbench {

/// True when this binary counts global operator new calls.
bool alloc_counting();
/// Global operator new calls since process start (0 when not counting).
std::uint64_t alloc_calls();

}  // namespace perfbench
