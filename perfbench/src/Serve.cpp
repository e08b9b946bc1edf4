//===- Serve.cpp - Socket serving stage with warm re-solves ---------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Set-up solves the suite's base system with LCD+HCD, writes the snapshot
/// file, loads it and draws the query pool. A round starts the unix-socket
/// front-end (serve::Server) over a fresh ServeSession on the base
/// snapshot; one client connection then runs a closed loop: a phase of
/// pts/alias/pointedby queries drawn from a pool stratified by answer
/// size, a `resolve <slice>`, the next phase, and so on through every
/// slice. Every round repeats the same operations.
///
/// Every reply is fingerprinted; after the last round each is compared
/// with the reply derived from a cold exhaustive solve of its epoch.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workloads.h"

#include "adt/Rng.h"
#include "constraints/OfflineVariableSubstitution.h"
#include "obs/Obs.h"
#include "serve/IncrementalSolver.h"
#include "serve/QueryEngine.h"
#include "serve/Server.h"
#include "serve/ServeSession.h"
#include "serve/Snapshot.h"
#include "solvers/Solve.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>

using namespace ag;

namespace pb {

namespace {

constexpr size_t NumSlices = 3;
constexpr size_t NumEpochs = NumSlices + 1;
/// Query pool, in the 2:1:1 pts/alias/pointedby mix of the repository's
/// load generator (tools/loadgen.py). Each kind draws evenly from NumBins
/// answer-size quantile bins.
constexpr size_t NumBins = 16;
constexpr size_t PoolPts = 128, PoolAlias = 64, PoolPointedBy = 64;
constexpr size_t PoolSize = PoolPts + PoolAlias + PoolPointedBy;

/// Blocking line client over a unix stream socket.
class Client {
public:
  Client() = default;
  ~Client() { close(); }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  bool connect(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_un Addr = {};
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path))
      return false;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    return ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
           0;
  }

  bool send(const std::string &Line) {
    size_t Off = 0;
    while (Off < Line.size()) {
      ssize_t N = ::send(Fd, Line.data() + Off, Line.size() - Off, 0);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// Reads one reply line (newline included) into \p Line.
  bool readLine(std::string &Line) {
    for (;;) {
      size_t Nl = Buf.find('\n', Scan);
      if (Nl != std::string::npos) {
        Line.assign(Buf, 0, Nl + 1);
        Buf.erase(0, Nl + 1);
        Scan = 0;
        return true;
      }
      Scan = Buf.size();
      char Chunk[65536];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }

private:
  int Fd = -1;
  std::string Buf;
  size_t Scan = 0;
};

/// Draws \p N members of \p From (without replacement while it lasts).
std::vector<NodeId> drawFrom(std::vector<NodeId> From, size_t N, Rng &R) {
  std::vector<NodeId> Out;
  for (size_t I = 0; I != N && !From.empty(); ++I) {
    size_t J = R.nextBelow(From.size());
    Out.push_back(From[J]);
    From[J] = From.back();
    From.pop_back();
  }
  return Out;
}

/// Draws \p PerBin members from each of NumBins equal-count bins of
/// \p Sorted (ascending by answer size), so the draw has the population's
/// size distribution whatever the seed.
std::vector<NodeId> drawByQuantile(const std::vector<NodeId> &Sorted,
                                   size_t PerBin, Rng &R) {
  std::vector<NodeId> Out;
  for (size_t B = 0; B != NumBins; ++B) {
    std::vector<NodeId> Bin(Sorted.begin() + B * Sorted.size() / NumBins,
                            Sorted.begin() +
                                (B + 1) * Sorted.size() / NumBins);
    std::vector<NodeId> Part = drawFrom(std::move(Bin), PerBin, R);
    Out.insert(Out.end(), Part.begin(), Part.end());
  }
  for (size_t I = Out.size(); I > 1; --I)
    std::swap(Out[I - 1], Out[R.nextBelow(I)]);
  return Out;
}

/// The query pool, stratified by answer size: pts and alias operands by
/// points-to set size, pointedby objects by how many nodes point to them.
std::vector<Query> buildPool(const Snapshot &Snap, uint64_t Seed) {
  Rng R(mixSeed(Seed ^ 0x5e47e));
  const PointsToSolution &Sol = Snap.Solution;
  std::vector<uint64_t> PtsSize(Sol.numNodes(), 0), Pointers(Sol.numNodes(), 0);
  std::vector<uint64_t> ClassSize(Sol.numNodes(), 0);
  for (NodeId V = 0; V != Sol.numNodes(); ++V)
    ++ClassSize[Sol.repOf(V)];
  for (NodeId V = 0; V != Sol.numNodes(); ++V) {
    PtsSize[V] = Sol.pointsTo(V).count();
    if (Sol.repOf(V) == V)
      for (uint32_t Obj : Sol.pointsTo(V))
        Pointers[Obj] += ClassSize[V];
  }
  std::vector<NodeId> Nodes, Objects;
  for (NodeId V = 0; V != Sol.numNodes(); ++V) {
    Nodes.push_back(V);
    if (Pointers[V] != 0)
      Objects.push_back(V);
  }
  auto BySize = [](const std::vector<uint64_t> &Size) {
    return [&Size](NodeId A, NodeId B) { return Size[A] < Size[B]; };
  };
  std::stable_sort(Nodes.begin(), Nodes.end(), BySize(PtsSize));
  std::stable_sort(Objects.begin(), Objects.end(), BySize(Pointers));

  std::vector<Query> Pool;
  for (NodeId V : drawByQuantile(Nodes, PoolPts / NumBins, R))
    Pool.push_back({Query::Pts, V, 0});
  std::vector<NodeId> Left = drawByQuantile(Nodes, PoolAlias / NumBins, R);
  std::vector<NodeId> Right = drawByQuantile(Nodes, PoolAlias / NumBins, R);
  for (size_t I = 0; I != Left.size() && I != Right.size(); ++I)
    Pool.push_back({Query::Alias, Left[I], Right[I]});
  for (NodeId Obj : drawByQuantile(Objects, PoolPointedBy / NumBins, R))
    Pool.push_back({Query::PointedBy, Obj, 0});
  return Pool;
}

/// The pool indices one phase sends, identical in every round: every pool
/// query once, then a seeded half of them again (the repeats the result
/// cache serves), in a seeded order.
std::vector<uint32_t> phaseStream(uint64_t Seed, size_t Epoch,
                                  size_t PoolSize) {
  Rng R(mixSeed(Seed * 131 + Epoch));
  std::vector<uint32_t> S(PoolSize);
  for (uint32_t I = 0; I != PoolSize; ++I)
    S[I] = I;
  for (size_t I = PoolSize; I > 1; --I)
    std::swap(S[I - 1], S[R.nextBelow(I)]);
  S.resize(PoolSize + PoolSize / 2);
  std::copy(S.begin(), S.begin() + PoolSize / 2, S.begin() + PoolSize);
  for (size_t I = S.size(); I > 1; --I)
    std::swap(S[I - 1], S[R.nextBelow(I)]);
  return S;
}

/// Seeded cold solve of the base snapshot's system plus the first
/// \p Slices delta slices: what a warm re-solve must land on.
PointsToSolution seededCold(const Snapshot &Base,
                            const std::vector<std::vector<Constraint>> &Delta,
                            size_t Slices) {
  ConstraintSystem CS = Base.CS;
  for (size_t I = 0; I != Slices; ++I)
    for (const Constraint &C : Delta[I])
      CS.add(C);
  return solve(CS, SolverKind::PKHHCD, PtsRepr::Bitmap, nullptr,
               SolverOptions(), &Base.SeedReps);
}

/// Cold solve of the original base plus \p Slices slices with its own
/// offline substitution: the precise answer the warm result must cover.
PointsToSolution fullCold(const ConstraintSystem &Base,
                          const std::vector<std::vector<Constraint>> &Delta,
                          size_t Slices) {
  ConstraintSystem CS = Base;
  for (size_t I = 0; I != Slices; ++I)
    for (const Constraint &C : Delta[I])
      CS.add(C);
  OvsResult Ovs = runOfflineVariableSubstitution(CS);
  return solve(Ovs.Reduced, SolverKind::PKHHCD, PtsRepr::Bitmap, nullptr,
               SolverOptions(), &Ovs.Rep);
}

/// A fixed four-node system on which `resolve` over a snapshot of the
/// OVS-reduced base (the `ptatool snapshot` form) answers wrong: the base
/// copy y = x is dropped by OVS because x is empty there, and the delta
/// x = &o never reaches y. Returns true if the served answer after the
/// resolve equals the cold solve of base plus delta (pts(y) = {o, q}).
bool reducedSnapshotProbe(const std::string &WorkDir) {
  ConstraintSystem Base;
  for (const char *Name : {"x", "y", "o", "q"})
    Base.addNode(Name);
  Base.addAddressOf(1, 3);
  Base.addCopy(1, 0);
  ConstraintSystem Delta = Base.cloneNodeTable();
  Delta.addAddressOf(0, 2);
  const std::string DeltaPath = WorkDir + "/probe-delta.cons";
  if (!Delta.writeToFile(DeltaPath))
    return false;
  OvsResult Ovs = runOfflineVariableSubstitution(Base);
  SolveResult SR =
      solveGoverned(Ovs.Reduced, SolverKind::LCDHCD, SolveBudget(),
                    PtsRepr::Bitmap, nullptr, SolverOptions(), &Ovs.Rep);
  Snapshot Snap;
  Snap.CS = std::move(Ovs.Reduced);
  Snap.SeedReps = std::move(Ovs.Rep);
  Snap.Solution = std::move(SR.Solution);
  ServeSession Session(std::move(Snap));
  std::ostringstream Out;
  Session.handleLine("resolve " + DeltaPath, Out);
  Out.str("");
  Session.handleLine("pts 1", Out);
  return Out.str() == "pts(1): 2 3\n";
}

/// Samples of the traced-only passes that call the layers directly.
struct LayerSamples {
  std::vector<double> EnginePts, EngineAlias, EnginePointedBy, Session,
      Roundtrip0;
  std::vector<std::vector<double>> WarmResolve =
      std::vector<std::vector<double>>(NumSlices);
  uint64_t WarmSeeded = 0, WarmPropagations = 0;
  uint64_t CacheHits = 0, CacheLookups = 0;
};

/// Traced rounds, untimed: the epoch-0 stream through ServeSession on a
/// string stream and through QueryEngine directly, then the slices
/// through IncrementalSolver.
bool runLayerPasses(const Snapshot &Snap, const ServeOptions &SO,
                    const std::vector<Query> &Pool,
                    const std::vector<uint32_t> &Stream0,
                    const std::vector<std::string> &SlicePaths, Tracer &T,
                    LayerSamples &L, RunResult &R) {
  // Counts are per round (each round repeats the same work).
  L.WarmSeeded = L.WarmPropagations = L.CacheHits = L.CacheLookups = 0;
  {
    ServeSession Session(Snap, SO);
    std::ostringstream Out;
    for (uint32_t I : Stream0) {
      std::string Line = Pool[I].line();
      Line.pop_back();
      Out.str("");
      Tracer::Scope S(T, "serve.session.handle_line");
      Session.handleLine(Line, Out);
      L.Session.push_back(S.stop() * 1e6);
    }
  }
  {
    QueryEngine Engine(Snap);
    for (uint32_t I : Stream0) {
      const Query &Q = Pool[I];
      switch (Q.K) {
      case Query::Pts: {
        Tracer::Scope S(T, "serve.engine.points_to");
        QueryEngine::IdList List = Engine.pointsTo(Q.A);
        L.EnginePts.push_back(S.stop() * 1e6);
        break;
      }
      case Query::Alias: {
        Tracer::Scope S(T, "serve.engine.alias");
        Engine.alias(Q.A, Q.B);
        L.EngineAlias.push_back(S.stop() * 1e6);
        break;
      }
      case Query::PointedBy: {
        Tracer::Scope S(T, "serve.engine.pointed_by");
        QueryEngine::IdList List;
        Status St = Engine.pointedBy(Q.A, List);
        L.EnginePointedBy.push_back(S.stop() * 1e6);
        if (!St.ok())
          R.error("engine pointedBy: " + St.toString());
        break;
      }
      }
    }
    CacheStats CS = Engine.cacheStats();
    L.CacheHits += CS.Hits;
    L.CacheLookups += CS.Hits + CS.Misses;
  }
  IncrementalSolver Inc(Snap);
  if (!Inc.valid().ok()) {
    R.error("incremental solver rejects the snapshot");
    return false;
  }
  for (size_t K = 0; K != NumSlices; ++K) {
    ConstraintSystem DeltaCS;
    if (!ConstraintSystem::loadFromFile(SlicePaths[K], DeltaCS).ok()) {
      R.error("cannot read " + SlicePaths[K]);
      return false;
    }
    Tracer::Scope S(T, "serve.incremental.resolve_system");
    WarmStartResult W = Inc.resolveSystem(DeltaCS);
    L.WarmResolve[K].push_back(S.stop());
    if (W.Outcome != SolveOutcome::Precise)
      R.error("warm re-solve not precise: " + W.St.toString());
    L.WarmSeeded += W.SeededNodes;
    L.WarmPropagations += W.Stats.Propagations;
  }
  return true;
}

class ServeStage final : public Stage {
public:
  explicit ServeStage(const SuiteInputs &In)
      : In(In), SnapPath(In.WorkDir + "/" + In.Suite + "-base.snap"),
        SockPath(In.WorkDir + "/" + In.Suite + ".sock") {}

  bool setUp(Tracer &T, SetupClock &Setup, RunResult &R) override {
    if (In.Slices.size() != NumSlices) {
      R.error("serve needs " + std::to_string(NumSlices) + " delta slices");
      return false;
    }
    // Snapshot build: parse, OVS, LCD+HCD seeded with the OVS map, write
    // the file. The snapshot keeps the parsed base system: a warm re-solve
    // over the OVS-reduced system loses the constraints OVS dropped as
    // reads of then-empty variables (see reducedSnapshotProbe).
    {
      ConstraintSystem CS;
      if (Status St = ConstraintSystem::loadFromFile(In.BasePath, CS);
          !St.ok()) {
        R.error(St.toString());
        return false;
      }
      OvsResult Ovs = runOfflineVariableSubstitution(CS);
      SolveResult SR =
          solveGoverned(Ovs.Reduced, SolverKind::LCDHCD, SolveBudget(),
                        PtsRepr::Bitmap, nullptr, SolverOptions(), &Ovs.Rep);
      Snapshot Built;
      Built.CS = std::move(CS);
      Built.SeedReps = std::move(Ovs.Rep);
      Built.Solution = std::move(SR.Solution);
      Built.Outcome = SR.Outcome;
      if (Status St = writeSnapshotFile(Built, SnapPath); !St.ok()) {
        R.error(St.toString());
        return false;
      }
    }
    // Load, as a serving process does.
    {
      Tracer::Scope S(T, "serve.snapshot_read");
      Status St = readSnapshotFile(SnapPath, Snap);
      SnapshotReadS = S.stop();
      if (!St.ok()) {
        R.error(St.toString());
        return false;
      }
    }
    const Clock::time_point Own0 = Clock::now();
    Pool = buildPool(Snap, In.Seed);
    for (size_t E = 0; E != NumEpochs; ++E)
      Streams.push_back(phaseStream(In.Seed, E, Pool.size()));
    Ledger = std::make_unique<ReplyLedger>(NumEpochs, Pool.size());
    FastestUs.assign(NumEpochs,
                     std::vector<double>(Streams[0].size(), 1e300));
    Setup.excludeSince(Own0);

    // A serving process collects metrics (its `stats` command reads them).
    obs::setMetricsEnabled(true);
    SrvOpts.UnixSocketPath = SockPath;
    SrvOpts.Workers = 2;
    return true;
  }

  bool round(Tracer &T, bool Traced, RunResult &R) override {
    auto Session = std::make_unique<ServeSession>(Snap, SO);
    Server Srv(*Session, SrvOpts);
    if (Status St = Srv.start(); !St.ok()) {
      R.error("server start: " + St.toString());
      return false;
    }
    Client C;
    std::string Reply;
    if (!C.connect(SockPath) || !C.readLine(Reply)) {
      R.error("cannot connect to " + SockPath);
      Srv.stop();
      return false;
    }
    bool Broken = false;
    for (size_t E = 0; E != NumEpochs && !Broken; ++E) {
      const Clock::time_point Phase0 = Clock::now();
      for (size_t P = 0; P != Streams[E].size(); ++P) {
        const uint32_t I = Streams[E][P];
        const std::string Line = Pool[I].line();
        ++R.Attempted;
        Tracer::Scope S(T, "serve.socket.roundtrip");
        const Clock::time_point Q0 = Clock::now();
        if (!C.send(Line) || !C.readLine(Reply)) {
          ++R.Failed;
          Broken = true;
          break;
        }
        const double Us = secondsBetween(Q0, Clock::now()) * 1e6;
        S.stop();
        if (!Traced)
          FastestUs[E][P] = std::min(FastestUs[E][P], Us);
        else if (E == 0)
          L.Roundtrip0.push_back(Us);
        if (Reply.compare(0, 6, "error:") == 0 ||
            Reply.compare(0, 3, "ERR") == 0)
          ++R.Failed;
        ReplyBytes += Reply.size();
        ++Replies;
        Ledger->record(E, I, fingerprint(Reply));
      }
      if (!Traced)
        PhaseBestS[E] =
            std::min(PhaseBestS[E], secondsBetween(Phase0, Clock::now()));
      if (E + 1 == NumEpochs || Broken)
        break;
      ++R.Attempted;
      Tracer::Scope S(T, "serve.socket.resolve");
      const Clock::time_point R0 = Clock::now();
      if (!C.send("resolve " + In.SlicePaths[E] + "\n") ||
          !C.readLine(Reply)) {
        ++R.Failed;
        Broken = true;
        break;
      }
      const double Sec = secondsBetween(R0, Clock::now());
      S.stop();
      if (!Traced)
        ResolveS[E].push_back(Sec);
      if (Reply.compare(0, 27, "resolved: outcome precise, ") != 0) {
        ++R.Failed;
        R.error("resolve reply: " + Reply);
      }
    }
    C.close();
    Srv.stop();
    Session.reset();
    ::unlink(SockPath.c_str());
    if (Broken) {
      R.error("connection lost");
      return false;
    }
    return true;
  }

  bool traceLayers(Tracer &T, RunResult &R) override {
    return runLayerPasses(Snap, SO, Pool, Streams[0], In.SlicePaths, T, L, R);
  }

  void check(RunResult &R) override {
    // A known fault of the program, reported once per run and kept out of
    // attempted/failed: it is not part of the served traffic (see
    // reducedSnapshotProbe).
    if (!reducedSnapshotProbe(In.WorkDir))
      std::fprintf(stderr,
                   "perfbench: known fault: resolve over an OVS-reduced "
                   "snapshot misses the dropped constraints' targets\n");

    // One more pass, untimed and without the socket, captures the solution
    // the session serves after each resolve.
    std::vector<std::optional<PointsToSolution>> Served(NumEpochs);
    {
      ServeSession Session(Snap, SO);
      std::ostringstream Out;
      for (size_t K = 0; K != NumSlices; ++K) {
        Session.handleLine("resolve " + In.SlicePaths[K], Out);
        Served[K + 1] = Session.servingSnapshot().Solution;
      }
    }

    // Every reply against its epoch's exhaustive solution, and each warm
    // re-solve against the seeded and the full-system cold solves.
    const Clock::time_point C0 = Clock::now();
    std::vector<std::vector<uint64_t>> Expected(NumEpochs);
    for (size_t E = 0; E != NumEpochs; ++E) {
      PointsToSolution Cold = seededCold(Snap, In.Slices, E);
      std::string Why;
      if (E == 0) {
        if (solutionMismatches(Snap.Solution, Cold, Why) != 0)
          R.error("base snapshot differs from a cold solve: " + Why);
      } else if (!Served[E]) {
        R.error("no served solution captured for epoch " + std::to_string(E));
      } else {
        if (solutionMismatches(*Served[E], Cold, Why) != 0)
          R.error("epoch " + std::to_string(E) +
                  ": warm solution differs from the seeded cold solve: " +
                  Why);
        if (subsetViolations(fullCold(In.Base, In.Slices, E), *Served[E],
                             Why) != 0)
          R.error("epoch " + std::to_string(E) +
                  ": warm solution misses part of the full cold solve: " +
                  Why);
      }
      Expected[E].resize(Pool.size());
      for (size_t Q = 0; Q != Pool.size(); ++Q)
        if (Ledger->seen(E, Q))
          Expected[E][Q] = fingerprint(expectedReply(Cold, Pool[Q]));
    }
    std::string Why;
    if (uint64_t Bad = Ledger->mismatches(Expected, Why))
      R.error(std::to_string(Bad) + " wrong replies; first: " + Why);
    std::fprintf(stderr, "perfbench: serve checks %.2f s\n",
                 secondsBetween(C0, Clock::now()));
  }

  void report(bool Trace, RunResult &R) const override {
    if (!Trace) {
      // Latency: per stream position its fastest round, then p50 and p99
      // over the positions; a stall that recurs in every round stays.
      // Throughput: per phase its fastest round, each a wall-clock window
      // with its stalls. A slice's warm resolve: its fastest round;
      // averaged over slices.
      std::vector<double> All, PerSlice;
      for (const std::vector<double> &V : FastestUs)
        for (double Us : V)
          if (Us < 1e300) // positions a broken round never reached
            All.push_back(Us);
      for (const std::vector<double> &V : ResolveS)
        PerSlice.push_back(minOf(V));
      double PhasesS = 0;
      for (double S : PhaseBestS)
        PhasesS += S;
      R.add("query_p50_us", quantile(All, 0.5), "us");
      R.add("query_p99_us", quantile(All, 0.99), "us");
      R.add("queries_per_s", double(NumEpochs * Streams[0].size()) / PhasesS,
            "1/s");
      R.add("resolve_s", meanOf(PerSlice), "s");
      return;
    }
    std::vector<double> WarmPerSlice;
    for (const std::vector<double> &V : L.WarmResolve)
      WarmPerSlice.push_back(median(V));
    R.add("serve.snapshot_read_s", SnapshotReadS, "s");
    R.add("serve.engine_pts_us", median(L.EnginePts), "us");
    R.add("serve.engine_alias_us", median(L.EngineAlias), "us");
    R.add("serve.engine_pointedby_us", median(L.EnginePointedBy), "us");
    R.add("serve.session_us", median(L.Session), "us");
    R.add("serve.socket_self_us", median(L.Roundtrip0) - median(L.Session),
          "us");
    R.add("serve.cache_hit_ratio",
          L.CacheLookups ? double(L.CacheHits) / double(L.CacheLookups) : 0,
          "ratio");
    R.addCount("serve.cache_lookups", L.CacheLookups);
    R.add("serve.reply_bytes",
          Replies ? double(ReplyBytes) / double(Replies) : 0, "bytes");
    R.add("serve.warm_resolve_s", meanOf(WarmPerSlice), "s");
    R.addCount("serve.warm_seeded_nodes", L.WarmSeeded);
    R.addCount("serve.warm_propagations", L.WarmPropagations);
  }

private:
  const SuiteInputs &In;
  const std::string SnapPath, SockPath;
  Snapshot Snap;
  double SnapshotReadS = 0;
  std::vector<Query> Pool;
  std::vector<std::vector<uint32_t>> Streams;
  ServeOptions SO;
  ServerOptions SrvOpts;
  std::unique_ptr<ReplyLedger> Ledger;
  /// Untraced rounds: per epoch and stream position the fastest request,
  /// per phase the fastest window, per slice every resolve.
  std::vector<std::vector<double>> FastestUs;
  std::vector<double> PhaseBestS = std::vector<double>(NumEpochs, 1e300);
  std::vector<std::vector<double>> ResolveS =
      std::vector<std::vector<double>>(NumSlices);
  uint64_t ReplyBytes = 0, Replies = 0;
  /// Traced rounds.
  LayerSamples L;
};

} // namespace

std::unique_ptr<Stage> makeServeStage(const SuiteInputs &In) {
  return std::make_unique<ServeStage>(In);
}

} // namespace pb
