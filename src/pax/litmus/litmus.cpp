#include "pax/litmus/litmus.hpp"

#include <algorithm>
#include <set>

#include "pax/common/check.hpp"

namespace pax::litmus {
namespace {

Op St(unsigned var, std::uint64_t value) {
  Op op;
  op.kind = OpKind::kStore;
  op.var = var;
  op.value = value;
  return op;
}

Op Ld(unsigned reg, unsigned var) {
  Op op;
  op.kind = OpKind::kLoad;
  op.var = var;
  op.reg = reg;
  return op;
}

// --- Forbidden-outcome predicates ----------------------------------------
//
// Every predicate also rejects final states no interleaving can produce
// (e.g. a store that never became durable), so a lost write is "forbidden"
// even when the registers happen to look plausible.

bool finals_are(const Outcome& o, std::initializer_list<std::uint64_t> want) {
  return std::equal(o.finals.begin(), o.finals.end(), want.begin(),
                    want.end());
}

bool sb_forbidden(const Outcome& o) {
  return (o.regs[0] == 0 && o.regs[1] == 0) || !finals_are(o, {1, 1});
}

bool lb_forbidden(const Outcome& o) {
  return (o.regs[0] == 1 && o.regs[1] == 1) || !finals_are(o, {1, 1});
}

bool mp_forbidden(const Outcome& o) {
  return (o.regs[0] == 1 && o.regs[1] == 0) || !finals_are(o, {1, 1});
}

bool wrc_forbidden(const Outcome& o) {
  return (o.regs[0] == 1 && o.regs[1] == 1 && o.regs[2] == 0) ||
         !finals_are(o, {1, 1});
}

bool iriw_forbidden(const Outcome& o) {
  return (o.regs[0] == 1 && o.regs[1] == 0 && o.regs[2] == 1 &&
          o.regs[3] == 0) ||
         !finals_are(o, {1, 1});
}

bool corr_forbidden(const Outcome& o) {
  // Same-location reads must not go backwards in time.
  return (o.regs[0] == 1 && o.regs[1] == 0) || !finals_are(o, {1});
}

bool coww_forbidden(const Outcome& o) {
  // Same-location writes from one core must commit in program order.
  return o.regs[0] != 2 || !finals_are(o, {2});
}

bool two_plus_two_w_forbidden(const Outcome& o) {
  const std::uint64_t x = o.finals[0];
  const std::uint64_t y = o.finals[1];
  // Both "first" writes surviving is the classic 2+2W violation; a value
  // neither core ever wrote (e.g. a dropped update leaving 0) is worse.
  return (x == 1 && y == 1) || (x != 1 && x != 2) || (y != 1 && y != 2);
}

constexpr unsigned kX = 0;
constexpr unsigned kY = 1;

std::vector<Shape> make_shapes() {
  std::vector<Shape> shapes;

  Shape sb;
  sb.name = "SB";
  sb.vars = 2;
  sb.regs = 2;
  sb.cores = {{St(kX, 1), Ld(0, kY)}, {St(kY, 1), Ld(1, kX)}};
  sb.forbidden_desc = "r0==0 && r1==0 (both stores invisible)";
  sb.forbidden = &sb_forbidden;
  shapes.push_back(std::move(sb));

  Shape lb;
  lb.name = "LB";
  lb.vars = 2;
  lb.regs = 2;
  lb.cores = {{Ld(0, kX), St(kY, 1)}, {Ld(1, kY), St(kX, 1)}};
  lb.forbidden_desc = "r0==1 && r1==1 (loads observe later stores)";
  lb.forbidden = &lb_forbidden;
  shapes.push_back(std::move(lb));

  Shape mp;
  mp.name = "MP";
  mp.vars = 2;
  mp.regs = 2;
  mp.cores = {{St(kX, 1), St(kY, 1)}, {Ld(0, kY), Ld(1, kX)}};
  mp.forbidden_desc = "r0==1 && r1==0 (flag seen, payload stale)";
  mp.forbidden = &mp_forbidden;
  shapes.push_back(std::move(mp));

  Shape wrc;
  wrc.name = "WRC";
  wrc.vars = 2;
  wrc.regs = 3;
  wrc.cores = {{St(kX, 1)},
               {Ld(0, kX), St(kY, 1)},
               {Ld(1, kY), Ld(2, kX)}};
  wrc.forbidden_desc = "r0==1 && r1==1 && r2==0 (write not yet propagated)";
  wrc.forbidden = &wrc_forbidden;
  shapes.push_back(std::move(wrc));

  Shape iriw;
  iriw.name = "IRIW";
  iriw.vars = 2;
  iriw.regs = 4;
  iriw.cores = {{St(kX, 1)},
                {St(kY, 1)},
                {Ld(0, kX), Ld(1, kY)},
                {Ld(2, kY), Ld(3, kX)}};
  iriw.forbidden_desc =
      "r0==1 && r1==0 && r2==1 && r3==0 (readers disagree on write order)";
  iriw.forbidden = &iriw_forbidden;
  shapes.push_back(std::move(iriw));

  Shape corr;
  corr.name = "CoRR";
  corr.vars = 1;
  corr.regs = 2;
  corr.cores = {{St(kX, 1)}, {Ld(0, kX), Ld(1, kX)}};
  corr.forbidden_desc = "r0==1 && r1==0 (same-line read goes backwards)";
  corr.forbidden = &corr_forbidden;
  shapes.push_back(std::move(corr));

  Shape coww;
  coww.name = "CoWW";
  coww.vars = 1;
  coww.regs = 1;
  coww.cores = {{St(kX, 1), St(kX, 2), Ld(0, kX)}};
  coww.forbidden_desc = "r0!=2 or final x!=2 (same-line writes reordered)";
  coww.forbidden = &coww_forbidden;
  shapes.push_back(std::move(coww));

  Shape ttw;
  ttw.name = "2+2W";
  ttw.vars = 2;
  ttw.regs = 0;
  ttw.same_line = true;  // false sharing: both vars in one undo-logged line
  ttw.cores = {{St(kX, 1), St(kY, 2)}, {St(kY, 1), St(kX, 2)}};
  ttw.forbidden_desc = "final x==1 && y==1 (both second writes lost)";
  ttw.forbidden = &two_plus_two_w_forbidden;
  shapes.push_back(std::move(ttw));

  return shapes;
}

}  // namespace

std::size_t Shape::op_count() const {
  std::size_t n = 0;
  for (const auto& ops : cores) n += ops.size();
  return n;
}

std::string var_name(unsigned v) {
  if (v == 0) return "x";
  if (v == 1) return "y";
  return std::string("v").append(std::to_string(v));
}

std::string Outcome::to_string() const {
  std::string out;
  for (std::size_t r = 0; r < regs.size(); ++r) {
    if (!out.empty()) out += " ";
    out.append("r").append(std::to_string(r)).append("=");
    out.append(std::to_string(regs[r]));
  }
  if (!regs.empty() && !finals.empty()) out += " | ";
  for (std::size_t v = 0; v < finals.size(); ++v) {
    if (v > 0) out += " ";
    out += var_name(static_cast<unsigned>(v)) + "=" +
           std::to_string(finals[v]);
  }
  return out;
}

const std::vector<Shape>& all_shapes() {
  static const std::vector<Shape> shapes = make_shapes();
  return shapes;
}

const Shape* find_shape(std::string_view name) {
  for (const Shape& shape : all_shapes()) {
    if (shape.name == name) return &shape;
  }
  return nullptr;
}

std::vector<std::vector<unsigned>> enumerate_interleavings(
    const Shape& shape) {
  std::vector<unsigned> order;
  for (unsigned c = 0; c < shape.core_count(); ++c) {
    order.insert(order.end(), shape.cores[c].size(), c);
  }
  std::vector<std::vector<unsigned>> all;
  do {
    all.push_back(order);
  } while (std::next_permutation(order.begin(), order.end()));
  return all;
}

std::string schedule_string(std::span<const unsigned> order) {
  std::string out;
  for (unsigned c : order) {
    if (!out.empty()) out += " ";
    out.append("P").append(std::to_string(c));
  }
  return out;
}

Outcome simulate_sc(const Shape& shape, std::span<const unsigned> order) {
  PAX_CHECK(order.size() == shape.op_count());
  std::vector<std::uint64_t> mem(shape.vars, 0);
  Outcome outcome;
  outcome.regs.assign(shape.regs, 0);
  std::vector<std::size_t> cursor(shape.cores.size(), 0);
  for (unsigned core : order) {
    PAX_CHECK(core < shape.core_count());
    PAX_CHECK(cursor[core] < shape.cores[core].size());
    const Op& op = shape.cores[core][cursor[core]++];
    if (op.kind == OpKind::kStore) {
      mem[op.var] = op.value;
    } else {
      outcome.regs[op.reg] = mem[op.var];
    }
  }
  outcome.finals = std::move(mem);
  return outcome;
}

std::vector<std::string> sc_outcome_set(const Shape& shape) {
  std::set<std::string> outcomes;
  for (const auto& order : enumerate_interleavings(shape)) {
    outcomes.insert(simulate_sc(shape, order).to_string());
  }
  return {outcomes.begin(), outcomes.end()};
}

}  // namespace pax::litmus
