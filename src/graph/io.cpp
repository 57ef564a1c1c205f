#include "graph/io.hpp"

#include <iterator>
#include <ostream>
#include <sstream>

namespace easched::graph {

void write_dot(const Dag& dag, std::ostream& os) {
  os << "digraph tasks {\n  rankdir=LR;\n";
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    os << "  n" << t << " [label=\"" << dag.name(t) << "\\nw=" << dag.weight(t) << "\"];\n";
  }
  for (TaskId u = 0; u < dag.num_tasks(); ++u) {
    for (TaskId v : dag.successors(u)) os << "  n" << u << " -> n" << v << ";\n";
  }
  os << "}\n";
}

void write_text(const Dag& dag, std::ostream& os) {
  os << "dag " << dag.num_tasks() << "\n";
  os.precision(17);
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    os << "task " << t << " " << dag.weight(t) << " " << dag.name(t) << "\n";
  }
  for (TaskId u = 0; u < dag.num_tasks(); ++u) {
    for (TaskId v : dag.successors(u)) os << "edge " << u << " " << v << "\n";
  }
}

namespace {

/// The shortest task line, "task 0 0": the keyword, two separators, a
/// one-digit id and a one-digit weight.
constexpr std::size_t kMinTaskLineBytes = 8;

/// Parses `size` bytes of text format from `is`.
common::Result<Dag> parse(std::istream& is, std::size_t size) {
  std::string keyword;
  int n = -1;
  if (!(is >> keyword >> n) || keyword != "dag" || n < 0) {
    return common::Status::invalid("expected header 'dag <n>'");
  }
  // Every task needs its own task line, so an n the remaining bytes cannot
  // hold is rejected before the tasks are allocated: a 13-byte header must
  // not cost gigabytes. tellg() is -1 once the header reached the end.
  const std::streamoff pos = is.tellg();
  const std::size_t rest = pos < 0 ? 0 : size - static_cast<std::size_t>(pos);
  if (static_cast<std::size_t>(n) > rest / kMinTaskLineBytes) {
    return common::Status::invalid("header claims " + std::to_string(n) +
                                   " tasks but only " + std::to_string(rest) +
                                   " bytes follow it");
  }
  Dag dag;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (int i = 0; i < n; ++i) dag.add_task(0.0);
  while (is >> keyword) {
    if (keyword == "task") {
      int id = -1;
      double w = -1.0;
      std::string name;
      if (!(is >> id >> w)) return common::Status::invalid("bad task line");
      if (id < 0 || id >= n) return common::Status::invalid("task id out of range");
      if (w < 0.0) return common::Status::invalid("negative weight");
      is >> name;  // required by the format (write_text always emits it)
      dag.set_weight(id, w);
      if (!name.empty()) dag.set_name(id, std::move(name));
      seen[static_cast<std::size_t>(id)] = true;
    } else if (keyword == "edge") {
      int u = -1, v = -1;
      if (!(is >> u >> v)) return common::Status::invalid("bad edge line");
      if (u < 0 || u >= n || v < 0 || v >= n || u == v) {
        return common::Status::invalid("edge endpoint out of range");
      }
      dag.add_edge(u, v);
    } else {
      return common::Status::invalid("unknown keyword '" + keyword + "'");
    }
  }
  for (int i = 0; i < n; ++i) {
    if (!seen[static_cast<std::size_t>(i)]) {
      return common::Status::invalid("missing task line for id " + std::to_string(i));
    }
  }
  if (auto st = dag.validate(); !st.is_ok()) return st;
  return dag;
}

}  // namespace

common::Result<Dag> read_text(std::istream& is) {
  const std::string text{std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
  return from_text(text);
}

std::string to_text(const Dag& dag) {
  std::ostringstream os;
  write_text(dag, os);
  return os.str();
}

common::Result<Dag> from_text(const std::string& text) {
  std::istringstream is(text);
  return parse(is, text.size());
}

}  // namespace easched::graph
