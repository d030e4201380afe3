// Search-throughput benchmark driver (see README.md in this directory).
//
// Untraced mode times rounds of whole run_nas() calls on one named workload
// while another round fits in the time budget.  Traced mode additionally
// replays every evaluation of each round, in id order, through the public
// calls of each module, recording a span around every call; the replay must
// reproduce the run's evaluator outputs exactly (the replay-agreement gate).
// All spans live in memory and are written out at the end.  The driver
// prints one JSON object of raw facts and samples on stdout; run.py turns
// it into metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "exp/journal.hpp"
#include "exp/runner.hpp"
#include "exp/trace_io.hpp"
#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "tensor/kernels.hpp"

namespace fs = std::filesystem;
using namespace swt;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int host_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// Why each workload exists is documented in README.md.  Every workload runs
// 4 virtual workers with fixed_train_seconds = 2 (traces are pure functions
// of the config) and regularized evolution with population 16 / sample 8.
struct Workload {
  const char* name;
  AppId app;
  TransferMode mode;
  bool durable;          ///< disk checkpoint store + fsynced journal
  int eval_parallelism;  ///< 0 = min(4, nproc)
  int compute_threads;   ///< 0 = min(4, nproc)
  long n_evals;          ///< per search
  int searches;          ///< independent searches per round
};

constexpr Workload kWorkloads[] = {
    {"cifar-lcs", AppId::kCifar, TransferMode::kLCS, false, 1, 0, 32, 16},
    {"nt3-lcs-durable", AppId::kNt3, TransferMode::kLCS, true, 0, 1, 40, 8},
    {"uno-baseline", AppId::kUno, TransferMode::kNone, false, 1, 1, 64, 24},
};

int resolve_threads(int n) { return n > 0 ? n : std::min(4, host_threads()); }

NasRunConfig run_config(const Workload& w, std::uint64_t seed) {
  NasRunConfig cfg;
  cfg.mode = w.mode;
  cfg.n_evals = w.n_evals;
  cfg.seed = seed;
  cfg.cluster.num_workers = 4;
  cfg.cluster.eval_parallelism = resolve_threads(w.eval_parallelism);
  cfg.cluster.fixed_train_seconds = 2.0;
  cfg.evolution.population_size = 16;
  cfg.evolution.sample_size = 8;
  return cfg;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Hash of the trace CSV, which holds every field of every record.
std::uint64_t trace_hash(const Trace& trace) {
  std::ostringstream os;
  write_trace_csv(os, trace);
  return fnv1a(os.str());
}

// ---- spans -----------------------------------------------------------------

struct Span {
  const char* name;
  int parent;  ///< index into the pass's span list, -1 for a root
  long eval_id;
  Clock::time_point start, end;
};

class SpanRecorder {
 public:
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, long eval_id) : rec_(rec) {
      idx_ = static_cast<int>(rec_.spans_.size());
      rec_.spans_.push_back({name, rec_.open_, eval_id, {}, {}});
      parent_ = rec_.open_;
      rec_.open_ = idx_;
      rec_.spans_.back().start = Clock::now();
    }
    ~Scope() {
      rec_.spans_[static_cast<std::size_t>(idx_)].end = Clock::now();
      rec_.open_ = parent_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int idx_ = 0;
    int parent_ = -1;
  };

  explicit SpanRecorder(std::size_t reserve) { spans_.reserve(reserve); }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

// ---- replay ----------------------------------------------------------------

struct ReplayResult {
  double wall_s = 0.0;
  long batches = 0;
  long transfers = 0;        ///< evals that read a parent checkpoint
  long transfer_hits = 0;    ///< ... and copied at least one tensor
  std::size_t bytes_written = 0;
};

[[noreturn]] void fail(const std::string& msg) {
  std::cerr << "searchbench: " << msg << "\n";
  std::exit(3);
}

template <class T>
bool bits_equal(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Re-run every evaluation of `trace` in id order, making the evaluator's
/// calls one at a time under spans, and check each against the trace.
ReplayResult replay(const Workload& w, const AppConfig& app, const NasRunConfig& cfg,
                    const Trace& trace, const fs::path& dir, SpanRecorder& spans) {
  std::map<long, const EvalRecord*> by_id;
  for (const EvalRecord& r : trace.records) {
    if (r.attempt != 0) fail("replay: trace holds a resubmitted attempt");
    by_id[r.id] = &r;
  }
  const TrainOptions opts = app.estimation_options();
  if (opts.early_stop_min_delta >= 0.0) fail("replay: estimation must not early-stop");

  ReplayResult out;
  const auto t0 = Clock::now();
  CheckpointStore store(w.durable ? CheckpointStore::Backend::kDisk
                                  : CheckpointStore::Backend::kMemory,
                        w.durable ? dir / "ckpts" : fs::path{});
  std::unique_ptr<RunJournal> journal;
  if (w.durable) journal = std::make_unique<RunJournal>(dir);
  const Rng::State selection_state = Rng(cfg.seed).state();
  std::vector<std::int64_t> batch_idx;

  for (const auto& [id, rec] : by_id) {
    const SpanRecorder::Scope eval_span(spans, "eval", id);
    EvalRecord got;
    got.id = id;
    got.arch = rec->arch;
    got.parent_id = rec->parent_id;

    Rng rng(mix64(cfg.seed, mix64(static_cast<std::uint64_t>(id), arch_hash(rec->arch))));
    NetworkPtr net;
    {
      const SpanRecorder::Scope s(spans, "nas.build", id);
      net = app.space.build(rec->arch);
      net->init(rng);
    }
    got.param_count = net->param_count();

    if (cfg.mode != TransferMode::kNone && rec->parent_id >= 0) {
      const auto parent = by_id.find(rec->parent_id);
      if (parent == by_id.end()) fail("replay: parent of eval " + std::to_string(id) + " missing");
      std::optional<std::pair<Checkpoint, IoStats>> provider;
      {
        const SpanRecorder::Scope s(spans, "ckpt.get", id);
        provider = store.try_get(parent->second->ckpt_key);
      }
      if (!provider.has_value()) {
        got.transfer_fallback = true;
      } else {
        const SpanRecorder::Scope s(spans, "core.transfer", id);
        const TransferStats ts = apply_transfer(provider->first, *net, cfg.mode);
        got.tensors_transferred = ts.tensors_transferred;
        got.values_transferred = ts.values_transferred;
        ++out.transfers;
        if (ts.any()) ++out.transfer_hits;
      }
    }

    // Trainer::fit's estimation loop, one public call per span.
    const Dataset& train = app.data.train;
    const Dataset& val = app.data.val;
    auto params = net->params();
    net->set_train_rng(&rng);
    Adam adam(opts.adam);
    std::vector<double> history;
    for (int epoch = 0; epoch < opts.epochs; ++epoch) {
      BatchIterator batches(train.size(), opts.batch_size, rng);
      for (;;) {
        Dataset batch;
        {
          const SpanRecorder::Scope s(spans, "data.batch", id);
          if (!batches.next(batch_idx)) break;
          batch = train.subset(batch_idx);
        }
        LossResult loss;
        {
          const SpanRecorder::Scope s(spans, "nn.forward", id);
          net->zero_grads();
          const Tensor pred = net->forward(batch.x, /*train=*/true);
          loss = batch.regression() ? mae_loss(pred, batch.y)
                                    : softmax_cross_entropy(pred, batch.labels);
        }
        {
          const SpanRecorder::Scope s(spans, "nn.backward", id);
          net->backward(loss.grad);
        }
        {
          const SpanRecorder::Scope s(spans, "nn.optimizer", id);
          adam.step(params);
        }
        ++out.batches;
      }
      const SpanRecorder::Scope s(spans, "nn.validate", id);
      history.push_back(Trainer::evaluate(*net, val, opts.objective));
    }
    net->set_train_rng(nullptr);
    got.score = history.back();
    got.first_epoch_score = history.front();

    if (cfg.mode != TransferMode::kNone) {
      const SpanRecorder::Scope s(spans, "ckpt.put", id);
      got.ckpt_key = "ckpt-" + std::to_string(id);
      const Checkpoint ckpt = Checkpoint::from_network(*net, rec->arch, got.score);
      got.ckpt_bytes = store.put(got.ckpt_key, ckpt).bytes;
    }
    if (journal != nullptr) {
      const SpanRecorder::Scope s(spans, "exp.journal_append", id);
      journal->append(got, selection_state);
    }

    if (!bits_equal(got.score, rec->score) ||
        !bits_equal(got.first_epoch_score, rec->first_epoch_score) ||
        got.ckpt_bytes != rec->ckpt_bytes ||
        got.tensors_transferred != rec->tensors_transferred ||
        got.values_transferred != rec->values_transferred ||
        got.transfer_fallback != rec->transfer_fallback) {
      std::ostringstream os;
      os.precision(17);
      os << "replay-agreement gate: eval " << id << " differs from the untraced trace"
         << " (score " << got.score << " vs " << rec->score << ", first_epoch_score "
         << got.first_epoch_score << " vs " << rec->first_epoch_score << ", ckpt_bytes "
         << got.ckpt_bytes << " vs " << rec->ckpt_bytes << ", tensors "
         << got.tensors_transferred << " vs " << rec->tensors_transferred << ", values "
         << got.values_transferred << " vs " << rec->values_transferred << ")";
      fail(os.str());
    }
  }
  out.bytes_written = store.total_bytes_written();
  out.wall_s = seconds_since(t0);
  return out;
}

// ---- facts from the traces -----------------------------------------------------

/// Deterministic facts summed over the searches of one round.
struct SearchFacts {
  long searches = 0;
  long evals = 0;
  double makespan_sum = 0.0;
  double top10_sum = 0.0;
  long attempts = 0;
  long failed = 0;
  double busy = 0.0;          ///< worker-busy virtual seconds
  double ckpt_charged = 0.0;  ///< checkpoint virtual seconds charged to workers
  double capacity = 0.0;      ///< workers x makespan
  long dispatch_instants = 0;

  void add(const Trace& t) {
    ++searches;
    evals += static_cast<long>(t.records.size());
    makespan_sum += t.makespan;
    const std::vector<EvalRecord> top = top_k(t, 10);
    double top_sum = 0.0;
    for (const EvalRecord& r : top) top_sum += r.score;
    if (!top.empty()) top10_sum += top_sum / static_cast<double>(top.size());
    attempts += static_cast<long>(t.records.size()) + t.crashed_attempts;
    failed += t.crashed_attempts + t.lost_evaluations + t.transfer_fallbacks;
    std::set<double> instants;
    for (const EvalRecord& r : t.records) {
      busy += r.virtual_finish - r.virtual_start;
      instants.insert(r.virtual_start);
    }
    ckpt_charged += t.total_ckpt_overhead();
    capacity += t.num_workers * t.makespan;
    dispatch_instants += static_cast<long>(instants.size());
  }
};

// ---- driver ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_dir;
  fs::path spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "searchbench: " << why
            << "\nusage: searchbench --workload NAME --seed N --seconds S --trace 0|1"
               " --work-dir DIR [--spans-out FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = val == "1";
      else if (key == "--work-dir") a.work_dir = val;
      else if (key == "--spans-out") a.spans_out = val;
      else usage("unknown option " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.work_dir.empty()) usage("--work-dir is required");
  if (a.trace && a.spans_out.empty()) usage("--trace 1 needs --spans-out");
  return a;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

template <class T>
std::string json_list(const std::vector<T>& v) {
  std::ostringstream os;
  os.precision(17);
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << "]";
  return os.str();
}

void write_spans(std::ostream& os, std::size_t pass, const std::vector<Span>& spans) {
  if (spans.empty()) return;
  const auto origin = spans.front().start;
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << pass << ',' << i << ',' << s.parent << ',' << s.name << ',' << s.eval_id << ','
       << ns(s.start) << ',' << ns(s.end) << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (args.workload == cand.name) w = &cand;
  if (w == nullptr) usage("unknown workload '" + args.workload + "'");

  set_log_level(LogLevel::kWarn);
  set_metrics_enabled(false);  // tracing off: no in-program telemetry
  const int compute_threads = resolve_threads(w->compute_threads);
  kernels::set_compute_threads(compute_threads);
  // The searches (seeds 1..K) are part of the workload; --seed generates
  // their datasets.  A new --seed changes every score, and so every search
  // past its random warm-up, while the warm-up architectures, and with them
  // most of the work in a round, stay put.  That keeps the work per round,
  // and so evals/s, comparable across seeds.
  std::vector<NasRunConfig> searches;
  for (int k = 0; k < w->searches; ++k)
    searches.push_back(run_config(*w, static_cast<std::uint64_t>(k + 1)));
  fs::create_directories(args.work_dir);

  // Set-up generates every search's dataset.  It is repeated before every
  // round, so its median spans the whole run rather than one instant of the
  // host's load.
  constexpr int kSetupRepsPerRound = 3;
  std::vector<double> setup_s;
  std::vector<AppConfig> apps(searches.size());
  const auto set_up = [&] {
    for (int i = 0; i < kSetupRepsPerRound; ++i) {
      const auto t0 = Clock::now();
      for (std::size_t k = 0; k < searches.size(); ++k)
        apps[k] = make_app(w->app, mix64(args.seed, static_cast<std::uint64_t>(k)));
      setup_s.push_back(seconds_since(t0));
    }
  };

  // Rounds of all searches while another round fits in the budget; in
  // traced mode each round is followed by the replay of every evaluation it
  // ran.  Every round does the same work, so rounds are comparable samples.
  const auto start = Clock::now();
  double last_round_s = 0.0;
  std::vector<std::string> search_wall_s;  ///< per round: JSON list, one wall per search
  std::vector<double> replay_wall_s;
  std::vector<long> batches, transfers, transfer_hits;
  std::vector<std::size_t> bytes_written;
  std::string digest;
  SearchFacts facts;
  std::vector<SpanRecorder> passes;
  double rss = 0.0;
  const fs::path run_dir = args.work_dir / "run";
  for (int round = 0; round == 0 || seconds_since(start) + last_round_s <= args.seconds;
       ++round) {
    const auto round_start = Clock::now();
    set_up();
    std::vector<NasRun> runs;  // held to the round's end, like one long search's store
    std::vector<double> walls;
    std::uint64_t h = 0;
    for (std::size_t k = 0; k < searches.size(); ++k) {
      NasRunConfig cfg = searches[k];
      if (w->durable) {
        fs::remove_all(run_dir);
        cfg.run_dir = run_dir;
      }
      const auto t0 = Clock::now();
      runs.push_back(run_nas(apps[k], cfg));
      walls.push_back(seconds_since(t0));
      h = mix64(h, trace_hash(runs.back().trace));
    }
    fs::remove_all(run_dir);
    search_wall_s.push_back(json_list(walls));
    if (round == 0) {
      // Peak memory of the first round only: it does the same work in every
      // run, however many rounds the budget allows.
      rss = peak_rss_mib();
      digest = hex64(h);
      for (const NasRun& r : runs) facts.add(r.trace);
    } else if (hex64(h) != digest) {
      fail("trace digest changed between runs of one workload: " + digest + " vs " + hex64(h));
    }
    if (!args.trace) {
      last_round_s = seconds_since(round_start);
      continue;
    }

    passes.emplace_back(static_cast<std::size_t>(facts.evals) * 64);
    ReplayResult sum;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const fs::path replay_dir = args.work_dir / "replay";
      fs::remove_all(replay_dir);
      const ReplayResult r = replay(*w, apps[k], searches[k], runs[k].trace, replay_dir, passes.back());
      fs::remove_all(replay_dir);
      sum.wall_s += r.wall_s;
      sum.batches += r.batches;
      sum.transfers += r.transfers;
      sum.transfer_hits += r.transfer_hits;
      sum.bytes_written += r.bytes_written;
    }
    replay_wall_s.push_back(sum.wall_s);
    batches.push_back(sum.batches);
    transfers.push_back(sum.transfers);
    transfer_hits.push_back(sum.transfer_hits);
    bytes_written.push_back(sum.bytes_written);
    last_round_s = seconds_since(round_start);
  }

  if (args.trace) {
    // Spans are written only now, after every timed section.
    std::ofstream spans_os(args.spans_out);
    spans_os << "pass,span,parent,name,eval,start_ns,end_ns\n";
    for (std::size_t p = 0; p < passes.size(); ++p) write_spans(spans_os, p, passes[p].spans());
    spans_os.close();
    if (!spans_os) fail("failed writing " + args.spans_out.string());
  }

  const NasRunConfig& cfg = searches.front();
  const double n = static_cast<double>(facts.searches);
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\":\"" << w->name << "\",\"seed\":" << args.seed
     << ",\"app\":\"" << apps.front().name << "\",\"mode\":\"" << to_string(cfg.mode)
     << "\",\"durable\":" << (w->durable ? "true" : "false")
     << ",\"searches\":" << facts.searches << ",\"evals\":" << facts.evals
     << ",\"num_workers\":" << cfg.cluster.num_workers << ",\"nproc\":" << host_threads()
     << ",\"compute_threads\":" << compute_threads
     << ",\"eval_parallelism\":" << cfg.cluster.eval_parallelism
     << ",\"build_type\":\"" << SEARCHBENCH_BUILD_TYPE << "\",\"native_kernels\":\""
     << SEARCHBENCH_NATIVE_KERNELS << "\",\"trace_digest\":\"" << digest
     << "\",\"setup_s\":" << json_list(setup_s) << ",\"search_wall_s\":" << json_list(search_wall_s)
     << ",\"peak_rss_mib\":" << rss << ",\"virtual_makespan_s\":" << facts.makespan_sum / n
     << ",\"top10_mean_score\":" << facts.top10_sum / n << ",\"attempts\":" << facts.attempts
     << ",\"failed\":" << facts.failed
     << ",\"ckpt_overhead_share\":" << (facts.busy > 0.0 ? facts.ckpt_charged / facts.busy : 0.0)
     << ",\"wavefront_width_mean\":"
     << static_cast<double>(facts.evals) / static_cast<double>(facts.dispatch_instants)
     << ",\"worker_idle_share\":" << 1.0 - facts.busy / facts.capacity;
  if (args.trace)
    os << ",\"replay_wall_s\":" << json_list(replay_wall_s)
       << ",\"batches\":" << json_list(batches) << ",\"transfers\":" << json_list(transfers)
       << ",\"transfer_hits\":" << json_list(transfer_hits)
       << ",\"bytes_written\":" << json_list(bytes_written);
  os << "}\n";
  std::cout << os.str() << std::flush;
  return 0;
}
