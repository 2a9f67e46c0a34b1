//===- fgbs/isa/Isa.cpp - Abstract instruction vocabulary ----------------===//

#include "fgbs/isa/Isa.h"

#include <cassert>

using namespace fgbs;

unsigned fgbs::bytesPerElement(Precision Prec) {
  switch (Prec) {
  case Precision::SP:
  case Precision::I32:
    return 4;
  case Precision::DP:
  case Precision::I64:
    return 8;
  }
  assert(false && "unknown precision");
  return 0;
}

bool fgbs::isFloatingPoint(Precision Prec) {
  return Prec == Precision::SP || Prec == Precision::DP;
}

bool fgbs::isFpArith(OpKind Kind) {
  switch (Kind) {
  case OpKind::FpAdd:
  case OpKind::FpMul:
  case OpKind::FpDiv:
  case OpKind::FpSqrt:
  case OpKind::FpExp:
  case OpKind::FpAbs:
    return true;
  default:
    return false;
  }
}

bool fgbs::isMemoryOp(OpKind Kind) {
  return Kind == OpKind::Load || Kind == OpKind::Store;
}

OpClass fgbs::classify(OpKind Kind, Precision Prec) {
  switch (Kind) {
  case OpKind::FpAdd:
    return OpClass::FpAddSub;
  case OpKind::FpMul:
    return OpClass::FpMulClass;
  case OpKind::FpDiv:
  case OpKind::FpSqrt:
    return OpClass::FpDivClass;
  case OpKind::FpExp:
  case OpKind::FpAbs:
    return OpClass::OtherFp;
  case OpKind::IntAdd:
  case OpKind::IntMul:
    return OpClass::IntClass;
  case OpKind::Load:
    return OpClass::LoadClass;
  case OpKind::Store:
    return OpClass::StoreClass;
  case OpKind::Compare:
  case OpKind::MoveReg:
    return isFloatingPoint(Prec) ? OpClass::OtherFp : OpClass::IntClass;
  case OpKind::Branch:
    return OpClass::ControlClass;
  }
  assert(false && "unknown op kind");
  return OpClass::ControlClass;
}

const char *fgbs::opKindName(OpKind Kind) {
  switch (Kind) {
  case OpKind::FpAdd:
    return "fp.add";
  case OpKind::FpMul:
    return "fp.mul";
  case OpKind::FpDiv:
    return "fp.div";
  case OpKind::FpSqrt:
    return "fp.sqrt";
  case OpKind::FpExp:
    return "fp.exp";
  case OpKind::FpAbs:
    return "fp.abs";
  case OpKind::IntAdd:
    return "int.add";
  case OpKind::IntMul:
    return "int.mul";
  case OpKind::Load:
    return "load";
  case OpKind::Store:
    return "store";
  case OpKind::Compare:
    return "cmp";
  case OpKind::Branch:
    return "branch";
  case OpKind::MoveReg:
    return "mov";
  }
  assert(false && "unknown op kind");
  return "?";
}

const char *fgbs::precisionName(Precision Prec) {
  switch (Prec) {
  case Precision::SP:
    return "sp";
  case Precision::DP:
    return "dp";
  case Precision::I32:
    return "i32";
  case Precision::I64:
    return "i64";
  }
  assert(false && "unknown precision");
  return "?";
}

PortSet fgbs::portsFor(OpKind Kind) {
  switch (Kind) {
  case OpKind::FpMul:
  case OpKind::FpDiv:
  case OpKind::FpSqrt:
    return PortSet::of({PortId::P0});
  case OpKind::FpAdd:
  case OpKind::FpAbs:
    return PortSet::of({PortId::P1});
  case OpKind::FpExp:
    // Libm-style sequences occupy both FP pipes.
    return PortSet::of({PortId::P0, PortId::P1});
  case OpKind::Load:
    return PortSet::of({PortId::P2, PortId::P3});
  case OpKind::Store:
    return PortSet::of({PortId::P4});
  case OpKind::IntAdd:
  case OpKind::IntMul:
  case OpKind::Compare:
    return PortSet::of({PortId::P1, PortId::P5});
  case OpKind::Branch:
    return PortSet::of({PortId::P5});
  case OpKind::MoveReg:
    return PortSet::of({PortId::P0, PortId::P1, PortId::P5});
  }
  assert(false && "unknown op kind");
  return PortSet();
}
