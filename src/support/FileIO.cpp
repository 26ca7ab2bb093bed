//===- FileIO.cpp - Whole-file reads and atomic publishes -----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <unistd.h>

using namespace ipra;

bool ipra::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (In.bad())
    return false;
  Out = std::move(Buf).str();
  return true;
}

bool ipra::writeFileAtomic(const std::string &Path, std::string_view Bytes) {
  static std::atomic<unsigned long long> Seq{0};
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(Seq.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    Out.close();
    if (!Out) {
      std::remove(Tmp.c_str());
      return false;
    }
  }
  std::error_code EC;
  std::filesystem::rename(Tmp, Path, EC);
  if (EC) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}
