//===- fgbs/sim/Executor.cpp - Codelet execution model --------------------===//

#include "fgbs/sim/Executor.h"

#include "fgbs/obs/Metrics.h"
#include "fgbs/obs/Trace.h"
#include "fgbs/support/Rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

using namespace fgbs;

namespace {

/// Caps keeping the sampled trace affordable: the steady-state window
/// only needs enough accesses to wrap the largest in-cache footprint.
constexpr std::uint64_t MaxWarmupAccesses = 3u * 1000 * 1000;
constexpr std::uint64_t MaxMeasureAccesses = 600 * 1000;

/// Strides at or below this many bytes are handled by the hardware
/// stream prefetchers of every modeled core.
constexpr std::int64_t PrefetchableStrideBytes = 128;

/// Walks one memory stream's address sequence.  Touch point P of
/// iteration T is at Base + PointOffsets[P] + (T * StrideBytes mod
/// FootprintBytes); the walker keeps that wrapped offset and advances it
/// by the stride's residue each iteration, so the hot loop divides
/// nothing.  An advance moves the offset up by Step or, when it wraps,
/// down by Footprint - Step.
class StreamWalker {
public:
  StreamWalker(const MemoryStreamDesc &Desc, std::uint64_t Base)
      : Footprint(Desc.FootprintBytes) {
    // Distinct touch points of a multi-point stream spread evenly over
    // the footprint (stencil planes).
    for (unsigned P = 0; P < Desc.PointsPerIter; ++P)
      PointBases.push_back(Base +
                           P * (Desc.FootprintBytes / Desc.PointsPerIter));
    std::int64_t Span = static_cast<std::int64_t>(Footprint);
    Step = static_cast<std::uint64_t>(
        ((Desc.StrideBytes % Span) + Span) % Span);
  }

  /// This iteration's touch points are at points()[P] + offset().
  const std::vector<std::uint64_t> &points() const { return PointBases; }
  std::uint64_t offset() const { return Offset; }

  /// The highest address the stream can touch (0 with no touch points).
  std::uint64_t lastAddress() const {
    return PointBases.empty() ? 0 : PointBases.back() + Footprint - 1;
  }

  /// How many of the iterations after this one, at most \p Cap, touch
  /// exactly this iteration's lines of LineMask + 1 bytes, each reached
  /// by an advance in the same direction as the next one.
  std::uint64_t repeats(std::uint64_t LineMask, std::uint64_t Cap) const {
    if (Step == 0)
      return Cap;
    const bool Up = Offset + Step < Footprint;
    const std::uint64_t Move = Up ? Step : Footprint - Step;
    if (Move > LineMask)
      return 0;
    // Bytes the offset can move before it wraps (or stops wrapping),
    // then before any touch point leaves its line.
    std::uint64_t Room = Up ? Footprint - 1 - Offset : Offset;
    for (std::uint64_t Point : PointBases) {
      std::uint64_t InLine = (Point + Offset) & LineMask;
      Room = std::min(Room, Up ? LineMask - InLine : InLine);
    }
    return std::min(Cap, Room / Move);
  }

  /// Moves to the next iteration.
  void advance() {
    Offset += Step;
    if (Offset >= Footprint)
      Offset -= Footprint;
  }

  /// Moves past \p Repeats more iterations, as many as repeats() allowed
  /// before the last advance(): the first Repeats - 1 moves go the way
  /// that advance went (up exactly when it left Offset >= Step).
  void skip(std::uint64_t Repeats) {
    if (Offset >= Step)
      Offset += (Repeats - 1) * Step;
    else
      Offset -= (Repeats - 1) * (Footprint - Step);
    advance();
  }

private:
  std::uint64_t Footprint;
  /// StrideBytes mod FootprintBytes, in [0, FootprintBytes).
  std::uint64_t Step;
  /// T * StrideBytes mod FootprintBytes for the current iteration T.
  std::uint64_t Offset = 0;
  std::vector<std::uint64_t> PointBases;
};

/// One machine's sampling windows: iterations [0, Warm) fill its
/// caches, and the next Measure iterations are counted.
struct Windows {
  std::uint64_t Warm = 0;
  std::uint64_t Measure = 0;

  std::uint64_t end() const { return Warm + Measure; }
};

Windows windowsFor(const std::vector<MemoryStreamDesc> &Streams,
                   const Machine &M, std::uint64_t TotalIterations,
                   unsigned TouchesPerIter) {
  // Warm until the largest wrapping stream has wrapped once (bounded),
  // then measure a steady-state window.  Working sets far beyond the
  // last-level cache can never produce reuse hits at the wrap, so a
  // short warmup already reaches the streaming steady state.
  std::uint64_t WrapIters = 1;
  std::uint64_t TotalFootprint = 0;
  for (const MemoryStreamDesc &S : Streams) {
    TotalFootprint += S.FootprintBytes;
    if (S.StrideBytes == 0)
      continue;
    std::uint64_t AbsStride =
        static_cast<std::uint64_t>(std::llabs(S.StrideBytes));
    WrapIters = std::max(WrapIters, S.FootprintBytes / AbsStride + 1);
  }
  if (TotalFootprint > 4 * M.lastLevelCacheBytes())
    WrapIters = std::min<std::uint64_t>(WrapIters, 30000);
  Windows W;
  W.Warm = std::min(WrapIters + 1024, MaxWarmupAccesses / TouchesPerIter);
  W.Measure = std::max<std::uint64_t>(1, MaxMeasureAccesses / TouchesPerIter);
  // Short-running codelets never reach the asymptote; shrink the windows
  // so per-invocation behaviour stays representative.
  if (TotalIterations < W.Warm + W.Measure) {
    W.Warm = TotalIterations / 2;
    W.Measure = std::max<std::uint64_t>(1, TotalIterations - W.Warm);
  }
  return W;
}

/// The live part of a LevelTree during one phase of the walk, in
/// preorder.  An access probes Levels[0]; a hit at I skips I's subtree
/// (to Skip[I]) and a miss moves to I + 1, which is I's first child,
/// or after a leaf the next subtree still to probe.
struct ActiveLevels {
  std::vector<CacheLevel *> Levels;
  std::vector<std::size_t> Skip;
  /// Per tree node: its position in Levels (meaningful for live nodes).
  std::vector<std::size_t> Slot;
  /// The smallest line size and associativity among the live L1s, the
  /// roots 0, Skip[0], Skip[Skip[0]], ... of Levels.
  unsigned L1LineBytes = ~0u;
  unsigned L1Ways = ~0u;
};

/// The cache levels of a set of machines as a tree.  Machines share a
/// node at level D while their levels 0..D agree in size, associativity
/// and line size.  No level feeds anything back up (no back-invalidation,
/// no writeback), so a level's contents depend only on the accesses that
/// missed every level above it: a shared node sees exactly the accesses,
/// and makes exactly the hit/miss decisions, that each of its machines'
/// own level would.
class LevelTree {
public:
  explicit LevelTree(std::span<const Machine *const> Machines)
      : Paths(Machines.size()) {
    std::size_t MaxNodes = 0;
    for (const Machine *M : Machines)
      MaxNodes += M->CacheLevels.size();
    Nodes.reserve(MaxNodes);
    for (std::size_t M = 0; M < Machines.size(); ++M) {
      std::size_t Parent = NoNode;
      for (const CacheLevelConfig &Config : Machines[M]->CacheLevels) {
        std::size_t Node = child(Parent, Config);
        if (Node == Nodes.size()) {
          Nodes.emplace_back(Config);
          Parents.push_back(Parent);
        }
        Paths[M].push_back(Node);
        Parent = Node;
      }
    }
  }

  std::size_t size() const { return Nodes.size(); }

  /// The node of each of machine M's levels, L1 first.
  const std::vector<std::size_t> &path(std::size_t M) const {
    return Paths[M];
  }

  /// The walk order of the nodes \p Live marks, which must include the
  /// parent of every node it marks.
  ActiveLevels active(const std::vector<bool> &Live) {
    ActiveLevels Out;
    Out.Slot.assign(Nodes.size(), 0);
    std::vector<std::size_t> Order;
    appendLive(NoNode, Live, Order);
    for (std::size_t I = 0; I < Order.size(); ++I) {
      Out.Slot[Order[I]] = I;
      Out.Levels.push_back(&Nodes[Order[I]]);
      std::size_t Next = I + 1;
      while (Next < Order.size() && within(Order[Next], Order[I]))
        ++Next;
      Out.Skip.push_back(Next);
    }
    for (std::size_t I = 0; I < Order.size(); I = Out.Skip[I]) {
      const CacheLevelConfig &L1 = Nodes[Order[I]].config();
      Out.L1LineBytes = std::min(Out.L1LineBytes, L1.LineBytes);
      Out.L1Ways = std::min(Out.L1Ways, L1.Associativity);
    }
    return Out;
  }

private:
  /// The parent of an L1.
  static constexpr std::size_t NoNode = ~std::size_t(0);

  static bool sameGeometry(const CacheLevel &Level,
                           const CacheLevelConfig &Config) {
    const CacheLevelConfig &Have = Level.config();
    return Have.SizeBytes == Config.SizeBytes &&
           Have.Associativity == Config.Associativity &&
           Have.LineBytes == Config.LineBytes;
  }

  /// The child of \p Parent with \p Config's geometry, or size() if
  /// there is none.
  std::size_t child(std::size_t Parent, const CacheLevelConfig &Config) const {
    for (std::size_t Node = 0; Node < Nodes.size(); ++Node)
      if (Parents[Node] == Parent && sameGeometry(Nodes[Node], Config))
        return Node;
    return Nodes.size();
  }

  /// Appends the live subtrees under \p Parent in preorder, siblings in
  /// the order their first machine lists them.
  void appendLive(std::size_t Parent, const std::vector<bool> &Live,
                  std::vector<std::size_t> &Out) const {
    for (std::size_t Node = 0; Node < Nodes.size(); ++Node)
      if (Parents[Node] == Parent && Live[Node]) {
        Out.push_back(Node);
        appendLive(Node, Live, Out);
      }
  }

  /// True when \p Node lies in the subtree rooted at \p Root.
  bool within(std::size_t Node, std::size_t Root) const {
    for (; Node != NoNode; Node = Parents[Node])
      if (Node == Root)
        return true;
    return false;
  }

  std::vector<CacheLevel> Nodes;
  std::vector<std::size_t> Parents;
  std::vector<std::vector<std::size_t>> Paths;
};

/// Walks \p Iters iterations of every stream through \p Active.  With
/// \p Count, Hits[J * Levels + I] counts stream J's hits at Levels[I].
/// \returns how many of the iterations it skipped.
///
/// After each simulated iteration the walk skips the following ones that
/// touch exactly its lines, at the smallest live L1 line size, provided
/// the iteration touches no more lines than the smallest live L1 has
/// ways.  That is exact for LRU: each of the iteration's lines then sits
/// among the top Touches ways of its set at every live L1, so repeating
/// the iteration hits at each of them, leaves every set's order as it
/// was and probes no deeper level (a hit skips its L1's subtree).  A
/// skipped iteration counts a hit at every live L1.
///
/// This is the simulator's hottest loop, with CacheLevel::access inlined
/// into it, and its speed depends on where it lands relative to 64-byte
/// code boundaries: left wherever the preceding code put it, cold
/// training moved by about 15% when unrelated library code changed
/// size.  Keeping it out of line and pinning its start fixes the loop's
/// placement.  If its speed moves with an unrelated edit, compare where
/// each build places it (nm) first.
template <bool Count>
[[gnu::noinline, gnu::aligned(64)]] std::uint64_t
walk(std::vector<StreamWalker> &Walkers, std::uint64_t Iters,
     const ActiveLevels &Active, std::uint64_t *Hits) {
  const std::size_t N = Active.Levels.size();
  CacheLevel *const *Levels = Active.Levels.data();
  const std::size_t *Skip = Active.Skip.data();
  std::size_t Touches = 0;
  for (const StreamWalker &W : Walkers)
    Touches += W.points().size();
  const bool MayRepeat = Touches <= Active.L1Ways;
  const std::uint64_t LineMask = Active.L1LineBytes - 1;
  std::uint64_t Skipped = 0;
  for (std::uint64_t T = 0; T < Iters; ++T) {
    // How many of the phase's later iterations repeat this one.
    std::uint64_t Run = MayRepeat ? Iters - T - 1 : 0;
    for (std::size_t J = 0; J < Walkers.size(); ++J) {
      StreamWalker &W = Walkers[J];
      // Hits is null when nobody counts, so form the row only then.
      std::uint64_t *Row = nullptr;
      if constexpr (Count)
        Row = Hits + J * N;
      for (std::uint64_t Point : W.points()) {
        std::uint64_t Addr = Point + W.offset();
        std::size_t I = 0;
        while (I < N) {
          if (Levels[I]->access(Addr)) {
            if constexpr (Count)
              ++Row[I];
            I = Skip[I];
          } else {
            ++I;
          }
        }
      }
      if (Run != 0)
        Run = W.repeats(LineMask, Run);
      W.advance();
    }
    if (Run == 0)
      continue;
    for (StreamWalker &W : Walkers)
      W.skip(Run);
    T += Run;
    Skipped += Run;
    if constexpr (Count)
      for (std::size_t J = 0; J < Walkers.size(); ++J)
        for (std::size_t I = 0; I < N; I = Skip[I])
          Hits[J * N + I] += Run * Walkers[J].points().size();
  }
  return Skipped;
}

/// Everything sampleMemoryBehavior reads, flattened into words: each
/// cache level's geometry, the iteration count, then every stream.  The
/// machine's name is deliberately absent -- a machine edited under the
/// same name must not reuse stale behaviour.
using SampleKey = std::vector<std::uint64_t>;

SampleKey sampleKey(const std::vector<MemoryStreamDesc> &Streams,
                    const Machine &M, std::uint64_t TotalIterations) {
  SampleKey Key;
  Key.reserve(2 + 3 * M.CacheLevels.size() + 5 * Streams.size());
  Key.push_back(M.CacheLevels.size());
  for (const CacheLevelConfig &L : M.CacheLevels) {
    Key.push_back(L.SizeBytes);
    Key.push_back(L.Associativity);
    Key.push_back(L.LineBytes);
  }
  Key.push_back(TotalIterations);
  for (const MemoryStreamDesc &S : Streams) {
    Key.push_back(static_cast<std::uint64_t>(S.StrideBytes));
    Key.push_back(S.FootprintBytes);
    Key.push_back(S.PointsPerIter);
    Key.push_back(S.IsStore);
    Key.push_back(S.ElemBytes);
  }
  return Key;
}

/// Hashes a SampleKey; the map still compares whole keys on lookup.
struct SampleKeyHash {
  std::size_t operator()(const SampleKey &Key) const {
    std::uint64_t Hash = Key.size();
    for (std::uint64_t Word : Key)
      Hash = hashCombine(Hash, Word);
    return static_cast<std::size_t>(Hash);
  }
};

/// The memo clears itself when a call's new keys would take it past this
/// many entries.  One suite sweep needs a few hundred (NAS: ~800 over
/// four machines); the bound matters to long-lived processes that sample
/// suite after suite.
constexpr std::size_t MaxMemoEntries = 4096;

} // namespace

std::vector<std::vector<StreamBehavior>>
fgbs::sampleMemoryBehavior(const std::vector<MemoryStreamDesc> &Streams,
                           std::span<const Machine *const> Machines,
                           std::uint64_t TotalIterations) {
  const std::size_t NumMachines = Machines.size();
  const std::vector<StreamBehavior> Empty(Streams.size());
  std::vector<std::vector<StreamBehavior>> Out(NumMachines, Empty);
  if (Streams.empty() || Machines.empty())
    return Out;
  FGBS_SCOPED_TIMER("sim.sample.walk");

  // Lay streams out at page-aligned, slightly staggered bases.  Rows
  // hold 32-bit line numbers, so the layout must end below line
  // CacheLevel::LineLimit at the smallest line size.
  std::vector<StreamWalker> Walkers;
  std::uint64_t NextBase = 1 << 20;
  std::uint64_t LastAddr = 0;
  unsigned TouchesPerIter = 0;
  for (std::size_t J = 0; J < Streams.size(); ++J) {
    Walkers.emplace_back(Streams[J], NextBase + J * 192);
    LastAddr = std::max(LastAddr, Walkers.back().lastAddress());
    NextBase += (Streams[J].FootprintBytes + 4095) / 4096 * 4096 + (1 << 16);
    TouchesPerIter += Streams[J].PointsPerIter;
  }
  assert(TouchesPerIter > 0 && "streams with no touches");
  std::uint64_t MinLineBytes = ~std::uint64_t(0);
  for (const Machine *M : Machines)
    for (const CacheLevelConfig &L : M->CacheLevels)
      MinLineBytes = std::min<std::uint64_t>(MinLineBytes, L.LineBytes);
  if (LastAddr / MinLineBytes >= CacheLevel::LineLimit)
    throw std::length_error("sampled trace reaches line 2^32 - 1");

  LevelTree Tree(Machines);
  std::vector<Windows> Window;
  for (const Machine *M : Machines)
    Window.push_back(windowsFor(Streams, *M, TotalIterations, TouchesPerIter));

  // Served[M][J][L]: stream J's accesses served by machine M's level L
  // (index numLevels() is DRAM) in M's measure window.
  std::vector<std::vector<std::vector<std::uint64_t>>> Served(NumMachines);
  for (std::size_t M = 0; M < NumMachines; ++M) {
    const std::vector<std::uint64_t> Levels(Tree.path(M).size() + 1, 0);
    Served[M].assign(Streams.size(), Levels);
  }

  // Split the walk at every machine's warm-up and measure edges.  Within
  // one phase the same machines are running and the same ones counting;
  // the walkers keep advancing across phases.
  std::vector<std::uint64_t> Edges = {0};
  for (const Windows &W : Window) {
    Edges.push_back(W.Warm);
    Edges.push_back(W.end());
  }
  std::sort(Edges.begin(), Edges.end());
  Edges.erase(std::unique(Edges.begin(), Edges.end()), Edges.end());

  std::vector<std::uint64_t> Hits;
  std::uint64_t Skipped = 0;
  for (std::size_t E = 0; E + 1 < Edges.size(); ++E) {
    const std::uint64_t Begin = Edges[E], End = Edges[E + 1];

    // A node stays live while any machine using it runs; a machine
    // counts while the phase lies inside its measure window.
    std::vector<bool> Live(Tree.size(), false);
    std::vector<std::size_t> Counting;
    for (std::size_t M = 0; M < NumMachines; ++M) {
      if (Window[M].end() < End)
        continue;
      for (std::size_t Node : Tree.path(M))
        Live[Node] = true;
      if (Window[M].Warm <= Begin)
        Counting.push_back(M);
    }
    const ActiveLevels Active = Tree.active(Live);

    if (Counting.empty()) {
      Skipped += walk<false>(Walkers, End - Begin, Active, nullptr);
      continue;
    }
    const std::size_t N = Active.Levels.size();
    Hits.assign(Streams.size() * N, 0);
    Skipped += walk<true>(Walkers, End - Begin, Active, Hits.data());
    for (std::size_t M : Counting)
      for (std::size_t J = 0; J < Streams.size(); ++J) {
        const std::uint64_t *Row = Hits.data() + J * N;
        const std::vector<std::size_t> &Path = Tree.path(M);
        std::uint64_t Missed = (End - Begin) * Streams[J].PointsPerIter;
        for (std::size_t L = 0; L < Path.size(); ++L) {
          std::uint64_t Here = Row[Active.Slot[Path[L]]];
          Served[M][J][L] += Here;
          Missed -= Here;
        }
        Served[M][J][Path.size()] += Missed;
      }
  }
  FGBS_COUNTER_ADD("sim.walk.iterations", Edges.back());
  FGBS_COUNTER_ADD("sim.walk.skipped_iterations", Skipped);

  for (std::size_t M = 0; M < NumMachines; ++M) {
    const std::size_t Levels = Tree.path(M).size();
    for (std::size_t J = 0; J < Streams.size(); ++J) {
      StreamBehavior &B = Out[M][J];
      B.ServedFraction.assign(Levels + 1, 0.0);
      double Total = 0.0;
      for (std::uint64_t Count : Served[M][J])
        Total += static_cast<double>(Count);
      if (Total > 0.0)
        for (std::size_t L = 0; L <= Levels; ++L)
          B.ServedFraction[L] = static_cast<double>(Served[M][J][L]) / Total;
      B.AccessesPerIter = Streams[J].PointsPerIter;
      B.Prefetchable =
          std::llabs(Streams[J].StrideBytes) <= PrefetchableStrideBytes;
      B.IsStore = Streams[J].IsStore;
      B.ElemBytes = Streams[J].ElemBytes;
    }
  }
  return Out;
}

std::vector<StreamBehavior>
fgbs::sampleMemoryBehavior(const std::vector<MemoryStreamDesc> &Streams,
                           const Machine &M,
                           std::uint64_t TotalIterations) {
  const Machine *One[] = {&M};
  return std::move(sampleMemoryBehavior(Streams, One, TotalIterations)[0]);
}

/// The memo's behaviour for each of \p Machines' keys.  The trace
/// simulation is the expensive part of execute(); identical (streams,
/// cache geometry, iteration-count) triples recur constantly across
/// contexts and pipeline runs, so memoize them.  The memo is shared
/// across the parallel measurement fan-out: a call looks up every key
/// under one lock, walks all the missing machines in one shared walk
/// outside it, then inserts under the lock.  Racing misses of one key
/// walk it twice, but the walk is deterministic and the first insert
/// wins.  A walk that throws memoizes nothing and reaches only its own
/// caller.
static std::vector<std::shared_ptr<const std::vector<StreamBehavior>>>
memoize(const std::vector<MemoryStreamDesc> &Streams,
        std::span<const Machine *const> Machines,
        std::uint64_t TotalIterations) {
  using Entry = std::shared_ptr<const std::vector<StreamBehavior>>;
  static std::mutex MemoMutex;
  static std::unordered_map<SampleKey, Entry, SampleKeyHash> Memo;

  const std::size_t N = Machines.size();
  std::vector<SampleKey> Keys;
  Keys.reserve(N);
  for (const Machine *M : Machines)
    Keys.push_back(sampleKey(Streams, *M, TotalIterations));

  std::vector<Entry> Out(N);
  std::vector<std::size_t> Missing;
  {
    std::lock_guard<std::mutex> Lock(MemoMutex);
    for (std::size_t I = 0; I < N; ++I) {
      auto It = Memo.find(Keys[I]);
      if (It == Memo.end())
        Missing.push_back(I);
      else
        Out[I] = It->second;
    }
  }
  if (Missing.size() < N)
    FGBS_COUNTER_ADD("sim.sample.hits", N - Missing.size());
  if (Missing.empty())
    return Out;
  FGBS_COUNTER_ADD("sim.sample.misses", Missing.size());

  std::vector<const Machine *> ToSample;
  for (std::size_t I : Missing)
    ToSample.push_back(Machines[I]);
  auto Sampled = sampleMemoryBehavior(Streams, ToSample, TotalIterations);
  std::lock_guard<std::mutex> Lock(MemoMutex);
  if (Memo.size() + Missing.size() > MaxMemoEntries) {
    FGBS_COUNTER_ADD("sim.sample.evictions", Memo.size());
    Memo.clear();
  }
  for (std::size_t K = 0; K < Missing.size(); ++K) {
    const std::size_t I = Missing[K];
    auto [It, Inserted] = Memo.try_emplace(std::move(Keys[I]));
    if (Inserted)
      It->second = std::make_shared<const std::vector<StreamBehavior>>(
          std::move(Sampled[K]));
    Out[I] = It->second;
  }
  return Out;
}

std::vector<StreamBehavior>
fgbs::sampleMemoryBehaviorCached(const std::vector<MemoryStreamDesc> &Streams,
                                 const Machine &M,
                                 std::uint64_t TotalIterations) {
  const Machine *One[] = {&M};
  return *memoize(Streams, One, TotalIterations)[0];
}

void fgbs::primeMemoryBehavior(const std::vector<MemoryStreamDesc> &Streams,
                               std::span<const Machine *const> Machines,
                               std::uint64_t TotalIterations) {
  memoize(Streams, Machines, TotalIterations);
}

MemoryTrace fgbs::memoryTrace(const Codelet &C, double Scale) {
  MemoryTrace Trace;
  Trace.Streams = collectStreams(C, Scale);
  auto TotalIters = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(C.Nest.totalIterations()) * Scale));
  Trace.TotalIterations = std::max<std::uint64_t>(TotalIters, 1);
  return Trace;
}

std::uint64_t
fgbs::simulatedAccesses(const MemoryTrace &Trace,
                        std::span<const Machine *const> Machines) {
  unsigned Touches = 0;
  for (const MemoryStreamDesc &S : Trace.Streams)
    Touches += S.PointsPerIter;
  if (Touches == 0)
    return 0;
  std::uint64_t Iters = 0;
  std::uint64_t LineBytes = ~std::uint64_t(0);
  unsigned Ways = ~0u;
  for (const Machine *M : Machines) {
    Iters = std::max(
        Iters,
        windowsFor(Trace.Streams, *M, Trace.TotalIterations, Touches).end());
    LineBytes =
        std::min<std::uint64_t>(LineBytes, M->CacheLevels[0].LineBytes);
    Ways = std::min(Ways, M->CacheLevels[0].Associativity);
  }
  const std::uint64_t Accesses = Iters * Touches;
  if (Touches > Ways)
    return Accesses;
  // Each iteration, each touch point of stride S crosses into a new line
  // with odds min(|S|, LineBytes) / LineBytes, and the walk simulates
  // about one iteration per crossing.
  std::uint64_t Crossings = 0;
  for (const MemoryStreamDesc &S : Trace.Streams)
    Crossings += S.PointsPerIter *
                 std::min<std::uint64_t>(std::llabs(S.StrideBytes), LineBytes);
  return Accesses * std::min(Crossings, LineBytes) / LineBytes;
}

/// Latency-hiding factor (memory-level parallelism) for a stream.
static double mlpFor(bool Prefetchable, bool OutOfOrder) {
  if (Prefetchable)
    return OutOfOrder ? 0.0 /* fully hidden */ : 4.0;
  return OutOfOrder ? 6.0 : 1.3;
}

/// The warm-cache replay advantage of a CF memory dump grows with how far
/// the working set overflows the last-level cache; on the modeled
/// machines only Atom's tiny L2 crosses the threshold (the paper observed
/// the effect only on Atom).
static double warmReplayMissReduction(const Machine &M,
                                      std::uint64_t FootprintBytes) {
  double Ratio = static_cast<double>(FootprintBytes) /
                 static_cast<double>(M.lastLevelCacheBytes());
  double T = std::clamp((Ratio - 50.0) / 150.0, 0.0, 1.0);
  return 1.0 + 0.6 * T;
}

Measurement fgbs::execute(const Codelet &C, const Machine &M,
                          const ExecutionRequest &R) {
  assert(R.DatasetScale > 0.0 && "dataset scale must be positive");
  FGBS_COUNTER_ADD("sim.execute", 1);
  Measurement Result;

  BinaryLoop Fresh;
  if (!R.Compile)
    Fresh = compile(C, M, R.Context, R.Options);
  const BinaryLoop &Loop =
      R.Compile ? R.Compile->get(C, M, R.Context, R.Options) : Fresh;
  Result.Compute = computeBound(Loop, M);

  double Scale = R.DatasetScale;
  const MemoryTrace Trace = memoryTrace(C, Scale);
  const std::uint64_t TotalIters = Trace.TotalIterations;
  std::vector<StreamBehavior> Behavior =
      sampleMemoryBehaviorCached(Trace.Streams, M, TotalIters);

  unsigned Levels = static_cast<unsigned>(M.CacheLevels.size());

  // Optional warm-replay adjustment: move part of the DRAM traffic to
  // the last-level cache.
  if (R.WarmCacheReplay && C.Traits.CacheStateSensitive) {
    double Reduction = warmReplayMissReduction(M, C.footprintBytes());
    for (StreamBehavior &B : Behavior) {
      double Mem = B.ServedFraction[Levels];
      double Kept = Mem / Reduction;
      B.ServedFraction[Levels] = Kept;
      B.ServedFraction[Levels - 1] += Mem - Kept;
    }
  }

  // --- Memory time per innermost iteration -----------------------------
  // Bandwidth: each level is charged the bytes it supplied; DRAM uses the
  // machine's sustained bandwidth.  Latency: exposed according to the
  // stream's prefetchability and the core's memory-level parallelism.
  double BwCycles = 0.0;
  double LatCycles = 0.0;
  double L1Bytes = 0.0;
  PerfCounters &Ctr = Result.Counters;
  for (const StreamBehavior &B : Behavior) {
    double Accesses = B.AccessesPerIter;
    L1Bytes += Accesses * B.ElemBytes;
    Ctr.L1Accesses += Accesses;
    double LineBytes = M.CacheLevels.front().LineBytes;
    for (unsigned L = 1; L <= Levels; ++L) {
      double ServedHere = Accesses * B.ServedFraction[L];
      if (ServedHere <= 0.0)
        continue;
      double Bytes = ServedHere * LineBytes;
      double Bandwidth = L < Levels ? M.CacheLevels[L].BandwidthBytesPerCycle
                                    : M.memBandwidthBytesPerCycle();
      double Latency = L < Levels ? M.CacheLevels[L].LatencyCycles
                                  : M.MemLatencyCycles;
      BwCycles += Bytes / Bandwidth;
      double Mlp = mlpFor(B.Prefetchable, M.OutOfOrder);
      if (Mlp > 0.0)
        LatCycles += ServedHere * Latency / Mlp;

      // Counters: lines entering L1 come from anywhere past it, etc.
      Ctr.L2LinesIn += ServedHere;
      if (L >= 2 && Levels >= 3)
        Ctr.L3LinesIn += ServedHere;
      if (L == Levels)
        Ctr.MemLinesIn += ServedHere;
    }
    if (B.IsStore)
      Ctr.StoreBytes += Accesses * B.ElemBytes;
    else
      Ctr.LoadBytes += Accesses * B.ElemBytes;
  }
  BwCycles += L1Bytes / M.CacheLevels.front().BandwidthBytesPerCycle;
  double MemCyclesPerIter = BwCycles + LatCycles;
  Result.MemCyclesPerIter = MemCyclesPerIter;

  // --- Combine compute and memory --------------------------------------
  double ComputePerElem =
      Result.Compute.ComputeCycles / static_cast<double>(Loop.ElementsPerIter);
  double PerElem;
  if (M.OutOfOrder)
    PerElem = std::max(ComputePerElem, MemCyclesPerIter) +
              0.15 * std::min(ComputePerElem, MemCyclesPerIter);
  else
    PerElem = ComputePerElem + 0.85 * MemCyclesPerIter;

  // Invocation overhead: call, spill/restore, loop setup.
  constexpr double InvocationOverheadCycles = 400.0;
  double Cycles =
      PerElem * static_cast<double>(TotalIters) + InvocationOverheadCycles;
  double Seconds = Cycles / M.hz();

  // --- Counters over the whole invocation ------------------------------
  double Bodies =
      static_cast<double>(TotalIters) / static_cast<double>(Loop.ElementsPerIter);
  double FpSP = 0.0;
  double FpDP = 0.0;
  for (const Inst &I : Loop.Body) {
    if (!isFpArith(I.Kind))
      continue;
    if (I.Prec == Precision::SP)
      FpSP += I.flops();
    else if (I.Prec == Precision::DP)
      FpDP += I.flops();
  }
  Ctr.FpOpsSP = FpSP * Bodies;
  Ctr.FpOpsDP = FpDP * Bodies;
  Ctr.Uops = Result.Compute.Uops * Bodies;
  Ctr.Cycles = Cycles;
  Ctr.Seconds = Seconds;
  // Per-iteration memory counters scale by the iteration count.
  Ctr.L1Accesses *= static_cast<double>(TotalIters);
  Ctr.L2LinesIn *= static_cast<double>(TotalIters);
  Ctr.L3LinesIn *= static_cast<double>(TotalIters);
  Ctr.MemLinesIn *= static_cast<double>(TotalIters);
  Ctr.LoadBytes *= static_cast<double>(TotalIters);
  Ctr.StoreBytes *= static_cast<double>(TotalIters);

  // --- Measurement noise and probe overhead ----------------------------
  // Short codelets suffer relatively more from instrumentation and timer
  // granularity (the paper attributes its residual error to codelets
  // under 10 ms per invocation).
  double ProbeOverhead =
      R.Context == CompilationContext::InApplication ? 3e-6 : 0.5e-6;
  double Millis = Seconds * 1e3;
  double Sigma = 0.012 + 0.035 * std::exp(-Millis / 8.0);
  std::uint64_t Seed = hashString(C.Name.c_str());
  Seed = hashCombine(Seed, hashString(M.Name.c_str()));
  Seed = hashCombine(Seed, static_cast<std::uint64_t>(R.Context));
  Seed = hashCombine(Seed, static_cast<std::uint64_t>(R.WarmCacheReplay));
  Seed = hashCombine(Seed,
                     static_cast<std::uint64_t>(std::llround(Scale * 4096)));
  Seed = hashCombine(Seed, hashString(R.Options.name().c_str()));
  Rng NoiseRng(Seed);
  double Factor = std::exp(NoiseRng.normal(0.0, Sigma));

  Result.TrueSeconds = Seconds;
  Result.MeasuredSeconds = Seconds * Factor + ProbeOverhead;
  return Result;
}
