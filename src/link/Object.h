//===- Object.h - Relocatable object format --------------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The relocatable object file the compiler second phase emits per
/// module, and the linked executable image. Code stays as structured
/// MInstr records; "relocation" means resolving Sym operands to absolute
/// data addresses / code indices and Label operands to absolute code
/// indices.
///
/// Symbol model (C-like):
///  - function and global names are global unless qualified
///    ("module:name"), which statics are;
///  - an uninitialized global is a common symbol: any number of modules
///    may declare it, they all merge into one definition;
///  - at most one module may initialize a given global;
///  - exactly one module must define each called function.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_LINK_OBJECT_H
#define IPRA_LINK_OBJECT_H

#include "target/MachineInstr.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ipra {

/// One compiled function: flattened machine code with function-relative
/// Label operands and symbolic Sym operands.
struct ObjFunction {
  std::string QualName;
  std::vector<MInstr> Code;

  bool operator==(const ObjFunction &O) const = default;
};

/// One global datum contributed by a module.
struct ObjGlobal {
  std::string QualName;
  int SizeWords = 1;
  std::vector<int32_t> Init; ///< Empty or shorter than size = zero-fill.
  std::string FuncInit;      ///< Non-empty: word 0 = address of function.

  bool operator==(const ObjGlobal &O) const = default;

  /// The object's `global` line; `init` lines with the words follow.
  static void fields(auto &S, auto &V) {
    V.pos("name", S.QualName);
    V.key("size", S.SizeWords);
    V.opt("funcinit", S.FuncInit);
  }
};

/// One module's compiled output.
struct ObjectFile {
  std::string Module;
  std::vector<ObjFunction> Functions;
  std::vector<ObjGlobal> Globals;

  /// Field-for-field equality. readObjectFile(writeObjectFile()) of any
  /// object equals it, which is why phase 2 hands the object it
  /// assembled to the linker instead of parsing its text back (the tests
  /// prove it on the corpus).
  bool operator==(const ObjectFile &O) const = default;
};

/// Symbol-table entry of the linked image, used by the simulator's
/// profiler to attribute cycles and calls to procedures.
struct ExeSymbol {
  std::string QualName;
  int Start = 0; ///< First instruction index.
  int End = 0;   ///< One past the last instruction.

  bool operator==(const ExeSymbol &O) const = default;
};

/// A linked executable image.
struct Executable {
  std::vector<MInstr> Code;       ///< Entry at index 0 (startup stub).
  std::vector<int32_t> DataInit;  ///< Initial contents of the data segment.
  int DataWords = 0;              ///< Data segment size.
  int StackWords = 1 << 16;       ///< Stack region above the data segment.
  std::vector<ExeSymbol> Symbols; ///< Sorted by Start.

  int memoryWords() const { return DataWords + StackWords; }

  /// Returns the symbol covering instruction \p Pc, or null.
  const ExeSymbol *symbolAt(int Pc) const;

  bool operator==(const Executable &O) const = default;
};

} // namespace ipra

#endif // IPRA_LINK_OBJECT_H
