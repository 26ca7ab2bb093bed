//===- FileIO.h - Whole-file reads and atomic publishes --------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two file operations the persistent stores share: the artifact
/// cache's disk layer and the build service's session files. Both
/// publish with writeFileAtomic, so a reader sees a whole file or none.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SUPPORT_FILEIO_H
#define IPRA_SUPPORT_FILEIO_H

#include <string>
#include <string_view>

namespace ipra {

/// Reads the whole file at \p Path into \p Out. False when it cannot be
/// opened or read.
bool readFile(const std::string &Path, std::string &Out);

/// Publishes \p Bytes at \p Path atomically: writes a private temp file
/// next to it, then renames it over \p Path. The temp name is unique per
/// process and per call (`<Path>.tmp.<pid>.<n>`), so concurrent writers
/// never share one; a failed write or rename removes it, and a crash
/// mid-write leaves only a stray temp file, never a torn \p Path.
bool writeFileAtomic(const std::string &Path, std::string_view Bytes);

} // namespace ipra

#endif // IPRA_SUPPORT_FILEIO_H
