// OpenMP team size shared by every parallel region in kernels/.
#pragma once

#ifdef _OPENMP
#include <omp.h>
#endif

namespace bcsf {

/// Threads for one OpenMP region: omp_get_max_threads(), or 1 without
/// OpenMP and under ThreadSanitizer.  libgomp is not instrumented, so TSan
/// cannot see its barriers and would report every parallel region as a
/// race; TSan builds run each region on the calling thread instead.
inline int kernel_threads() {
#if defined(_OPENMP) && !defined(__SANITIZE_THREAD__)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

}  // namespace bcsf
