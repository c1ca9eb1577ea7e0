// Build provenance for machine-readable output: which commit, compiler,
// and option flags produced a number. `membq_perf info` prints it, so a
// number can be tied to its build (a seq-cst-rings build or a dirty tree
// is not the same experiment).
//
// The sha, dirty flag, compiler and build type come from a header that
// cmake/gen_buildinfo.cmake regenerates on every build (so the sha tracks
// HEAD, not the last configure); the two option flags come from the
// MEMBQ_TELEMETRY and MEMBQ_SEQCST_RINGS compile definitions. The
// __has_include fallback keeps this header usable from non-CMake contexts
// (IDE indexers, single-file compiles): everything degrades to "unknown"
// instead of failing to compile.
#pragma once

#if defined(__has_include)
#if __has_include(<membq_buildinfo_generated.hpp>)
#include <membq_buildinfo_generated.hpp>
#endif
#endif

#ifndef MEMBQ_GIT_SHA
#define MEMBQ_GIT_SHA "unknown"
#endif
#ifndef MEMBQ_GIT_DIRTY
#define MEMBQ_GIT_DIRTY 0
#endif
#ifndef MEMBQ_COMPILER
#define MEMBQ_COMPILER "unknown"
#endif
#ifndef MEMBQ_BUILD_TYPE
#define MEMBQ_BUILD_TYPE "unknown"
#endif

namespace membq {

struct BuildInfo {
  const char* git_sha;
  bool git_dirty;
  const char* compiler;
  const char* build_type;
  bool telemetry;
  bool seqcst_rings;
};

inline BuildInfo build_info() noexcept {
  BuildInfo b;
  b.git_sha = MEMBQ_GIT_SHA;
  b.git_dirty = MEMBQ_GIT_DIRTY != 0;
  b.compiler = MEMBQ_COMPILER;
  b.build_type = MEMBQ_BUILD_TYPE;
#if defined(MEMBQ_TELEMETRY) && MEMBQ_TELEMETRY
  b.telemetry = true;
#else
  b.telemetry = false;
#endif
#if defined(MEMBQ_SEQCST_RINGS)
  b.seqcst_rings = true;
#else
  b.seqcst_rings = false;
#endif
  return b;
}

}  // namespace membq
