//===- fgbs/analysis/Features.cpp - The 76-feature catalog ----------------===//

#include "fgbs/analysis/Features.h"

#include "fgbs/compiler/Compiler.h"
#include "fgbs/sim/Pipeline.h"

#include <cassert>
#include <cmath>

using namespace fgbs;

static double safeDiv(double Num, double Den, double Default = 0.0) {
  return Den != 0.0 ? Num / Den : Default;
}

const FeatureCatalog &FeatureCatalog::get() {
  static FeatureCatalog Catalog;
  return Catalog;
}

FeatureCatalog::FeatureCatalog() {
  auto S = [this](const char *Name) {
    Infos.push_back({Name, FeatureKind::Static});
  };
  auto D = [this](const char *Name) {
    Infos.push_back({Name, FeatureKind::Dynamic});
  };

  // --- MAQAO-like static features (40) --------------------------------
  S("static.loop_instructions");
  S("static.loop_code_bytes");
  S("static.registers_used");
  S("static.unroll_factor");
  S("static.elements_per_iteration");
  S("static.cycles_per_iteration_l1");
  S("static.estimated_ipc_l1");        // Table 2.
  S("static.bytes_loaded_per_cycle_l1");
  S("static.bytes_stored_per_cycle_l1"); // Table 2.
  S("static.data_dependency_stalls");  // Table 2.
  S("static.divider_pressure");
  S("static.pressure_port_p0");
  S("static.pressure_port_p1");        // Table 2.
  S("static.pressure_port_p2");
  S("static.pressure_port_p3");
  S("static.pressure_port_p4");
  S("static.pressure_port_p5");
  S("static.issue_pressure");
  S("static.num_fp_div");              // Table 2.
  S("static.num_fp_sqrt");
  S("static.num_fp_exp");
  S("static.num_sd_instructions");     // Table 2.
  S("static.num_ss_instructions");
  S("static.num_loads");
  S("static.num_stores");
  S("static.num_fp_add_sub");
  S("static.num_fp_mul");
  S("static.num_int_ops");
  S("static.ratio_add_sub_over_mul");  // Table 2.
  S("static.ratio_load_over_store");
  S("static.vec_ratio_overall");
  S("static.vec_ratio_fp_add");
  S("static.vec_ratio_fp_mul");        // Table 2.
  S("static.vec_ratio_loads");
  S("static.vec_ratio_stores");
  S("static.vec_ratio_other_fp_int");  // Table 2.
  S("static.vec_ratio_other_int");     // Table 2.
  S("static.fp_fraction");
  S("static.chain_parallelism");
  S("static.critical_chain_ops");

  // --- Likwid-like dynamic features (36) -------------------------------
  D("dynamic.mflops");                 // Table 2.
  D("dynamic.mflops_sp");
  D("dynamic.mflops_dp");
  D("dynamic.cpi");
  D("dynamic.ipc");
  D("dynamic.l1_bandwidth_mbs");
  D("dynamic.l2_bandwidth_mbs");       // Table 2.
  D("dynamic.l3_bandwidth_mbs");
  D("dynamic.memory_bandwidth_mbs");   // Table 2.
  D("dynamic.l1_miss_rate");
  D("dynamic.l2_miss_rate");
  D("dynamic.l3_miss_rate");           // Table 2.
  D("dynamic.l2_lines_per_kuop");
  D("dynamic.l3_lines_per_kuop");
  D("dynamic.mem_lines_per_kuop");
  D("dynamic.load_store_byte_ratio");
  D("dynamic.store_bandwidth_mbs");
  D("dynamic.flops_per_mem_byte");
  D("dynamic.flops_per_l1_access");
  D("dynamic.time_per_invocation_ms");
  D("dynamic.cycles_per_invocation");
  D("dynamic.uops_per_invocation");
  D("dynamic.fp_uop_fraction");
  D("dynamic.sp_fraction_of_flops");
  D("dynamic.l1_hit_fraction");
  D("dynamic.l2_service_fraction");
  D("dynamic.l3_service_fraction");
  D("dynamic.mem_service_fraction");
  D("dynamic.bytes_per_uop");
  D("dynamic.dram_bw_fraction_of_peak");
  D("dynamic.average_service_depth");
  D("dynamic.flops_per_cycle");
  D("dynamic.l1_accesses_per_cycle");
  D("dynamic.stores_per_uop");
  D("dynamic.uops_per_second");
  D("dynamic.flops_per_l2_byte");

  assert(Infos.size() == NumFeatures && "catalog must hold 76 features");
}

int FeatureCatalog::indexOf(const std::string &Name) const {
  for (std::size_t I = 0; I < Infos.size(); ++I)
    if (Infos[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

std::vector<std::size_t> FeatureCatalog::staticIndices() const {
  std::vector<std::size_t> Out;
  for (std::size_t I = 0; I < Infos.size(); ++I)
    if (Infos[I].Kind == FeatureKind::Static)
      Out.push_back(I);
  return Out;
}

std::vector<std::size_t> FeatureCatalog::dynamicIndices() const {
  std::vector<std::size_t> Out;
  for (std::size_t I = 0; I < Infos.size(); ++I)
    if (Infos[I].Kind == FeatureKind::Dynamic)
      Out.push_back(I);
  return Out;
}

const std::vector<std::string> fgbs::kTable2FeatureNames = {
    // Likwid dynamic features of Table 2.
    "dynamic.mflops",
    "dynamic.l2_bandwidth_mbs",
    "dynamic.l3_miss_rate",
    "dynamic.memory_bandwidth_mbs",
    // MAQAO static features of Table 2.
    "static.bytes_stored_per_cycle_l1",
    "static.data_dependency_stalls",
    "static.estimated_ipc_l1",
    "static.num_fp_div",
    "static.num_sd_instructions",
    "static.pressure_port_p1",
    "static.ratio_add_sub_over_mul",
    "static.vec_ratio_fp_mul",
    "static.vec_ratio_other_fp_int",
    "static.vec_ratio_other_int",
};

std::vector<double> fgbs::computeFeatures(const Codelet &C, const Machine &Ref,
                                          const Measurement &M,
                                          CompileCache *Compile) {
  std::vector<double> F;
  F.reserve(NumFeatures);

  BinaryLoop Fresh;
  if (!Compile)
    Fresh = compile(C, Ref, CompilationContext::InApplication);
  const BinaryLoop &Loop =
      Compile ? Compile->get(C, Ref, CompilationContext::InApplication,
                             CompilerOptions())
              : Fresh;
  ComputeBreakdown B = computeBound(Loop, Ref);

  // Counts over the loop body.
  double Loads = Loop.countKind(OpKind::Load);
  double Stores = Loop.countKind(OpKind::Store);
  double FpAddSub = Loop.countKind(OpKind::FpAdd);
  double FpMul = Loop.countKind(OpKind::FpMul);
  double FpDivs = Loop.countKind(OpKind::FpDiv);
  double FpSqrt = Loop.countKind(OpKind::FpSqrt);
  double FpExpC = Loop.countKind(OpKind::FpExp);
  double IntOps =
      Loop.countKind(OpKind::IntAdd) + Loop.countKind(OpKind::IntMul);
  double NumSD = 0.0;
  double NumSS = 0.0;
  double FpInsts = 0.0;
  double LoadBytesPerBody = 0.0;
  double StoreBytesPerBody = 0.0;
  for (const Inst &I : Loop.Body) {
    if (I.isScalarDouble())
      ++NumSD;
    if (I.Prec == Precision::SP && I.VecElems == 1 && isFpArith(I.Kind))
      ++NumSS;
    if (isFpArith(I.Kind))
      ++FpInsts;
    if (I.Kind == OpKind::Load)
      LoadBytesPerBody += I.VecElems * bytesPerElement(I.Prec);
    if (I.Kind == OpKind::Store)
      StoreBytesPerBody += I.VecElems * bytesPerElement(I.Prec);
  }

  double BodySize = static_cast<double>(Loop.Body.size());
  double CyclesL1 = B.ComputeCycles;

  // --- Static features, in catalog order -------------------------------
  F.push_back(BodySize);
  F.push_back(Loop.CodeBytes);
  F.push_back(Loop.NumRegisters);
  F.push_back(Loop.UnrollFactor);
  F.push_back(Loop.ElementsPerIter);
  F.push_back(CyclesL1);
  F.push_back(safeDiv(BodySize, CyclesL1));
  F.push_back(safeDiv(LoadBytesPerBody, CyclesL1));
  F.push_back(safeDiv(StoreBytesPerBody, CyclesL1));
  F.push_back(B.DepCycles);
  F.push_back(B.DividerCycles);
  for (unsigned P = 0; P < NumPorts; ++P)
    F.push_back(B.PortCycles[P]);
  F.push_back(B.IssueCycles);
  F.push_back(FpDivs);
  F.push_back(FpSqrt);
  F.push_back(FpExpC);
  F.push_back(NumSD);
  F.push_back(NumSS);
  F.push_back(Loads);
  F.push_back(Stores);
  F.push_back(FpAddSub);
  F.push_back(FpMul);
  F.push_back(IntOps);
  F.push_back(safeDiv(FpAddSub, FpMul, /*Default=*/FpAddSub));
  F.push_back(safeDiv(Loads, Stores, /*Default=*/Loads));
  F.push_back(Loop.vectorizedPercent());
  F.push_back(Loop.statsFor(OpClass::FpAddSub).ratioPercent());
  F.push_back(Loop.statsFor(OpClass::FpMulClass).ratioPercent());
  F.push_back(Loop.statsFor(OpClass::LoadClass).ratioPercent());
  F.push_back(Loop.statsFor(OpClass::StoreClass).ratioPercent());
  {
    const OpClassStats &OtherFp = Loop.statsFor(OpClass::OtherFp);
    const OpClassStats &IntCls = Loop.statsFor(OpClass::IntClass);
    unsigned Vec = OtherFp.VectorOps + IntCls.VectorOps;
    unsigned Tot = OtherFp.total() + IntCls.total();
    F.push_back(Tot ? 100.0 * Vec / Tot : 0.0);
    F.push_back(IntCls.ratioPercent());
  }
  F.push_back(safeDiv(FpInsts, BodySize));
  F.push_back(Loop.ChainParallelism);
  F.push_back(static_cast<double>(Loop.CritChainOps.size()));

  // --- Dynamic features, in catalog order ------------------------------
  const PerfCounters &Ctr = M.Counters;
  double T = Ctr.Seconds;
  double Line = Ref.CacheLevels.front().LineBytes;
  double L1Bytes = Ctr.LoadBytes + Ctr.StoreBytes;
  double L2Bytes = Ctr.L2LinesIn * Line;
  double L3Bytes = Ctr.L3LinesIn * Line;
  double MemBytes = Ctr.MemLinesIn * Line;
  double Flops = Ctr.totalFlops();

  F.push_back(safeDiv(Flops, T) / 1e6);
  F.push_back(safeDiv(Ctr.FpOpsSP, T) / 1e6);
  F.push_back(safeDiv(Ctr.FpOpsDP, T) / 1e6);
  F.push_back(safeDiv(Ctr.Cycles, Ctr.Uops));
  F.push_back(safeDiv(Ctr.Uops, Ctr.Cycles));
  F.push_back(safeDiv(L1Bytes, T) / 1e6);
  F.push_back(safeDiv(L2Bytes, T) / 1e6);
  F.push_back(safeDiv(L3Bytes, T) / 1e6);
  F.push_back(safeDiv(MemBytes, T) / 1e6);
  F.push_back(safeDiv(Ctr.L2LinesIn, Ctr.L1Accesses));
  F.push_back(safeDiv(Ctr.L3LinesIn, Ctr.L2LinesIn));
  // L3 miss rate: fraction of requests reaching past the last on-chip
  // level (on machines without L3, Likwid reports L2 misses here).
  F.push_back(safeDiv(Ctr.MemLinesIn,
                      Ctr.L3LinesIn > 0.0 ? Ctr.L3LinesIn : Ctr.L2LinesIn));
  F.push_back(safeDiv(Ctr.L2LinesIn * 1000.0, Ctr.Uops));
  F.push_back(safeDiv(Ctr.L3LinesIn * 1000.0, Ctr.Uops));
  F.push_back(safeDiv(Ctr.MemLinesIn * 1000.0, Ctr.Uops));
  F.push_back(safeDiv(Ctr.LoadBytes, Ctr.StoreBytes, Ctr.LoadBytes));
  F.push_back(safeDiv(Ctr.StoreBytes, T) / 1e6);
  F.push_back(safeDiv(Flops, MemBytes, Flops));
  F.push_back(safeDiv(Flops, Ctr.L1Accesses));
  F.push_back(T * 1e3);
  F.push_back(Ctr.Cycles);
  F.push_back(Ctr.Uops);
  F.push_back(safeDiv(Flops, Ctr.Uops));
  F.push_back(safeDiv(Ctr.FpOpsSP, Flops));
  F.push_back(1.0 - safeDiv(Ctr.L2LinesIn, Ctr.L1Accesses));
  F.push_back(safeDiv(Ctr.L2LinesIn - Ctr.L3LinesIn, Ctr.L1Accesses));
  F.push_back(safeDiv(Ctr.L3LinesIn - Ctr.MemLinesIn, Ctr.L1Accesses));
  F.push_back(safeDiv(Ctr.MemLinesIn, Ctr.L1Accesses));
  F.push_back(safeDiv(L1Bytes, Ctr.Uops));
  F.push_back(safeDiv(MemBytes / (T > 0.0 ? T : 1.0),
                      Ref.MemBandwidthGBs * 1e9));
  {
    // Weighted average depth of the level servicing each access
    // (0 = L1, 1 = L2, 2 = L3, 3 = DRAM).
    double Depth = safeDiv(Ctr.L2LinesIn + Ctr.L3LinesIn + Ctr.MemLinesIn,
                           Ctr.L1Accesses);
    F.push_back(Depth);
  }
  F.push_back(safeDiv(Flops, Ctr.Cycles));
  F.push_back(safeDiv(Ctr.L1Accesses, Ctr.Cycles));
  F.push_back(safeDiv(Ctr.StoreBytes / 8.0, Ctr.Uops));
  F.push_back(safeDiv(Ctr.Uops, T));
  F.push_back(safeDiv(Flops, L2Bytes, Flops));

  assert(F.size() == NumFeatures && "feature vector must have 76 entries");
  return F;
}

FeatureMask fgbs::allFeaturesMask() {
  return FeatureMask(NumFeatures, true);
}

FeatureMask fgbs::maskForNames(const std::vector<std::string> &Names) {
  FeatureMask Mask(NumFeatures, false);
  const FeatureCatalog &Catalog = FeatureCatalog::get();
  for (const std::string &Name : Names) {
    int Index = Catalog.indexOf(Name);
    assert(Index >= 0 && "unknown feature name");
    Mask[static_cast<std::size_t>(Index)] = true;
  }
  return Mask;
}

std::vector<std::size_t> fgbs::maskColumns(const FeatureMask &Mask) {
  std::vector<std::size_t> Columns;
  Columns.reserve(maskCount(Mask));
  for (std::size_t I = 0; I < Mask.size(); ++I)
    if (Mask[I])
      Columns.push_back(I);
  return Columns;
}

std::vector<double> fgbs::applyMask(const std::vector<double> &Full,
                                    const FeatureMask &Mask) {
  assert(Full.size() == Mask.size() && "mask width mismatch");
  return applyMask(Full, maskColumns(Mask));
}

std::vector<double> fgbs::applyMask(const std::vector<double> &Full,
                                    std::span<const std::size_t> Columns) {
  std::vector<double> Out(Columns.size());
  for (std::size_t C = 0; C < Columns.size(); ++C) {
    assert(Columns[C] < Full.size() && "column outside the feature vector");
    Out[C] = Full[Columns[C]];
  }
  return Out;
}

std::size_t fgbs::maskCount(const FeatureMask &Mask) {
  std::size_t Count = 0;
  for (bool Bit : Mask)
    Count += Bit;
  return Count;
}
