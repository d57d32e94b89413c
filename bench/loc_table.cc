#include "bench/loc_table.h"

#include <fstream>
#include <map>

#include "src/common/assert.h"
#include "src/miniparsec/app_common.h"

namespace tcs {
namespace {

std::vector<std::string> ReadLines(const std::string& source_dir,
                                   const std::string& rel_path) {
  std::ifstream in(source_dir + "/" + rel_path);
  TCS_CHECK_MSG(in.good(), "cannot open adapter source for line counting");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

// Index of the line containing `needle`, starting at `from`; -1 if absent.
int FindLine(const std::vector<std::string>& lines, const std::string& needle,
             int from = 0) {
  for (int i = from; i < static_cast<int>(lines.size()); ++i) {
    if (lines[i].find(needle) != std::string::npos) {
      return i;
    }
  }
  return -1;
}

// Given the index of a line that opens a block, returns the index of the line
// closing it (brace tracking).
int BlockEnd(const std::vector<std::string>& lines, int open_idx) {
  int depth = 0;
  for (int i = open_idx; i < static_cast<int>(lines.size()); ++i) {
    for (char c : lines[i]) {
      if (c == '{') {
        depth++;
      } else if (c == '}') {
        depth--;
        if (depth == 0) {
          return i;
        }
      }
    }
  }
  TCS_CHECK_MSG(false, "unbalanced braces in adapter source");
  return -1;
}

int CountNonBlank(const std::vector<std::string>& lines, int first, int last) {
  int n = 0;
  for (int i = first; i <= last; ++i) {
    bool blank = true;
    for (char c : lines[i]) {
      if (c != ' ' && c != '\t') {
        blank = false;
        break;
      }
    }
    if (!blank) {
      n++;
    }
  }
  return n;
}

struct OpSource {
  std::string file;       // relative to the repo root
  std::string signature;  // locates the operation's function
};

// The adapter operation implementing each synchronization-point kind.
const std::map<SyncKind, OpSource>& OpSources() {
  static const auto* m = new std::map<SyncKind, OpSource>{
      {SyncKind::kQueuePop,
       {"src/sync/work_queue.cc", "std::optional<std::uint64_t> WorkQueue::Pop()"}},
      {SyncKind::kQueuePush, {"src/sync/work_queue.cc", "void WorkQueue::Push("}},
      {SyncKind::kBarrier,
       {"src/sync/phase_barrier.cc", "void PhaseBarrier::ArriveAndWait()"}},
      {SyncKind::kGate, {"src/sync/ticket_gate.cc", "void TicketGate::WaitFor("}},
  };
  return *m;
}

struct KindCounts {
  int waitpred = 0;
  int await = 0;
  int retry = 0;
  int removed = 0;  // pthread mutex/condvar lines the mechanism arms replace
};

// Lines of the `case Mechanism::kX:` arm inside [first, last].
int ArmLines(const std::vector<std::string>& lines, int first, int last,
             const std::string& label) {
  int start = FindLine(lines, "case Mechanism::" + label + ":", first);
  if (start < 0 || start > last) {
    return 0;
  }
  int end = start;
  for (int i = start + 1; i <= last; ++i) {
    if (lines[i].find("case Mechanism::") != std::string::npos ||
        lines[i].find("default:") != std::string::npos) {
      break;
    }
    end = i;
  }
  return CountNonBlank(lines, start, end);
}

// Pthread-path lines of one adapter operation: the dedicated *Pthreads helper if
// the operation has one, otherwise the inline `if (mech_ == kPthreads)` block.
int PthreadLines(const std::vector<std::string>& lines, const OpSource& op) {
  if (op.signature.find("WorkQueue::Pop") != std::string::npos) {
    int f = FindLine(lines, "std::optional<std::uint64_t> WorkQueue::PopPthreads()");
    return CountNonBlank(lines, f, BlockEnd(lines, f));
  }
  if (op.signature.find("WorkQueue::Push") != std::string::npos) {
    int f = FindLine(lines, "void WorkQueue::PushPthreads(");
    return CountNonBlank(lines, f, BlockEnd(lines, f));
  }
  int f = FindLine(lines, op.signature);
  TCS_CHECK(f >= 0);
  int body_end = BlockEnd(lines, f);
  int p = FindLine(lines, "Mechanism::kPthreads", f);
  TCS_CHECK(p >= 0 && p <= body_end);
  return CountNonBlank(lines, p, BlockEnd(lines, p));
}

KindCounts CountsForKind(const std::string& source_dir, SyncKind kind) {
  const OpSource& op = OpSources().at(kind);
  std::vector<std::string> lines = ReadLines(source_dir, op.file);
  int f = FindLine(lines, op.signature);
  TCS_CHECK_MSG(f >= 0, "adapter operation signature not found");
  int end = BlockEnd(lines, f);
  KindCounts k;
  k.waitpred = ArmLines(lines, f, end, "kWaitPred");
  k.await = ArmLines(lines, f, end, "kAwait");
  k.retry = ArmLines(lines, f, end, "kRetry");
  k.removed = PthreadLines(lines, op);
  return k;
}

}  // namespace

std::vector<LocTableRow> CountLocTable(const std::string& source_dir) {
  std::vector<LocTableRow> rows;
  std::map<SyncKind, KindCounts> cache;
  for (const AppInfo& app : MiniParsecApps()) {
    LocTableRow row{app.name, app.sync_points.size(), 0, 0, 0, 0};
    for (const SyncPointInfo& sp : app.sync_points) {
      auto it = cache.find(sp.kind);
      if (it == cache.end()) {
        it = cache.emplace(sp.kind, CountsForKind(source_dir, sp.kind)).first;
      }
      row.waitpred += it->second.waitpred;
      row.await += it->second.await;
      row.retry += it->second.retry;
      row.removed += it->second.removed;
    }
    rows.push_back(row);
  }
  return rows;
}

}  // namespace tcs
