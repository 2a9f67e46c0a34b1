//===- fgbs/isa/Isa.h - Abstract instruction vocabulary --------*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract instruction-set vocabulary shared by the mini-compiler
/// (fgbs/compiler), the MAQAO-like static analyzer (fgbs/analysis), and the
/// performance simulator (fgbs/sim).
///
/// Instructions are deliberately abstract: an operation kind, an element
/// precision, and a vector width in elements.  Concrete encodings are
/// irrelevant to the paper's method; what matters is the classification
/// that MAQAO-style metrics need (scalar-double counts, vectorization
/// ratios per operation class, divisions, dispatch-port pressure).
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_ISA_ISA_H
#define FGBS_ISA_ISA_H

#include <cstdint>
#include <string>
#include <vector>

namespace fgbs {

/// Abstract operation kinds.
enum class OpKind {
  FpAdd,   ///< Floating-point add or subtract.
  FpMul,   ///< Floating-point multiply.
  FpDiv,   ///< Floating-point divide (unpipelined on all modeled cores).
  FpSqrt,  ///< Floating-point square root (shares the divider).
  FpExp,   ///< Transcendental (exp/log/sin); lowered to a libm-like block.
  FpAbs,   ///< Floating-point absolute value / sign manipulation.
  IntAdd,  ///< Integer add/sub/logic.
  IntMul,  ///< Integer multiply.
  Load,    ///< Memory read.
  Store,   ///< Memory write.
  Compare, ///< Comparison (drives a select or branch).
  Branch,  ///< Loop back-edge or internal control flow.
  MoveReg, ///< Register move / shuffle / pack-unpack overhead.
};

/// Element precisions.
enum class Precision {
  SP,  ///< 32-bit float ("single precision" in the paper's tables).
  DP,  ///< 64-bit float ("double precision").
  I32, ///< 32-bit integer.
  I64, ///< 64-bit integer.
};

/// Coarse operation classes used for the vectorization-ratio features of
/// paper Table 2 ("Vectorization ratio for Multiplications (FP)",
/// "... Other (FP+INT)", "... Other (INT)", etc).
enum class OpClass {
  FpAddSub,
  FpMulClass,
  FpDivClass,
  OtherFp,  ///< abs, exp, compares on FP, moves of FP data.
  IntClass, ///< integer arithmetic.
  LoadClass,
  StoreClass,
  ControlClass,
};

/// Returns the byte width of one element of \p Prec.
unsigned bytesPerElement(Precision Prec);

/// Returns true for SP/DP.
bool isFloatingPoint(Precision Prec);

/// Returns true for kinds that perform floating-point arithmetic
/// (contributes to FLOP counts).
bool isFpArith(OpKind Kind);

/// Returns true for Load/Store.
bool isMemoryOp(OpKind Kind);

/// Maps an (kind, precision) pair onto its vectorization-ratio class.
OpClass classify(OpKind Kind, Precision Prec);

/// Printable names.
const char *opKindName(OpKind Kind);
const char *precisionName(Precision Prec);

/// One abstract instruction in a compiled loop body.
struct Inst {
  OpKind Kind;
  Precision Prec;
  /// Number of elements processed (1 = scalar; ISA vector width / element
  /// size when vectorized).
  unsigned VecElems = 1;
  /// True for loop-control overhead (induction, exit compare, back-edge):
  /// excluded from MAQAO-style vectorization ratios.
  bool LoopOverhead = false;

  bool isVector() const { return VecElems > 1; }

  /// Number of FP operations this instruction contributes per execution.
  unsigned flops() const { return isFpArith(Kind) ? VecElems : 0; }

  /// True if this is a scalar double-precision instruction ("SD", the
  /// MAQAO feature "Number of SD instructions").
  bool isScalarDouble() const {
    return Prec == Precision::DP && VecElems == 1 &&
           (isFpArith(Kind) || Kind == OpKind::MoveReg ||
            Kind == OpKind::Compare);
  }
};

/// Identifiers for abstract dispatch ports, modeled on the Intel P6-family
/// port layout the paper's machines share:
///   P0 - FP multiply / divide, P1 - FP add, P2/P3 - loads,
///   P4 - store data, P5 - integer ALU and branches.
enum class PortId : unsigned {
  P0 = 0,
  P1 = 1,
  P2 = 2,
  P3 = 3,
  P4 = 4,
  P5 = 5,
};

/// Number of modeled ports.
inline constexpr unsigned NumPorts = 6;

/// A set of ports an instruction may dispatch to, as a bitmask.
struct PortSet {
  unsigned Mask = 0;

  static PortSet of(std::initializer_list<PortId> Ports) {
    PortSet Set;
    for (PortId P : Ports)
      Set.Mask |= 1u << static_cast<unsigned>(P);
    return Set;
  }

  bool contains(PortId P) const {
    return (Mask >> static_cast<unsigned>(P)) & 1u;
  }

  unsigned count() const { return __builtin_popcount(Mask); }
};

/// Returns the dispatch ports \p Kind may use (identical across the
/// modeled cores; per-core differences are expressed through issue width
/// and latencies in fgbs/arch).
PortSet portsFor(OpKind Kind);

} // namespace fgbs

#endif // FGBS_ISA_ISA_H
