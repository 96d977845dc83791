//===- dataflow/Solver.h - Generic iterative dataflow solver ------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic worklist solver for gen/kill bitset problems over one
/// function's cfg::CFGView.  A Problem fixes the direction (forward or
/// backward), the meet (union for may-facts, intersect for must-facts),
/// one gen/kill transfer function per block, and the boundary value; the
/// solver iterates the blocks in reverse postorder (forward problems) or
/// postorder (backward problems) until a fixed point.
///
/// The Set parameter is any value type with |, &, ~ and == — in practice a
/// raw uint32_t, one bit per architectural register.  Transfer functions
/// are applied as
///
///   out = Gen | (in & ~Kill)        (forward; mirrored for backward)
///
/// which makes every transfer monotone, so with an all-zero start for
/// union problems (facts only grow) and an all-ones start for intersect
/// problems (facts only shrink) the iteration converges; rounds are
/// counted so tests can pin convergence even on irreducible CFGs.
///
/// Unreachable blocks are excluded from the RPO and keep their initial
/// value; callers must not read facts for them.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_DATAFLOW_SOLVER_H
#define DMP_DATAFLOW_SOLVER_H

#include "cfg/CFG.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace dmp::dataflow {

enum class Direction : uint8_t { Forward, Backward };
enum class Meet : uint8_t { Union, Intersect };

/// One block's transfer function: out = Gen | (in & ~Kill).
template <typename Set> struct Transfer {
  Set Gen{};
  Set Kill{};
};

/// One dataflow problem over a CFGView.
template <typename Set> struct Problem {
  Direction Dir = Direction::Forward;
  Meet MeetKind = Meet::Union;
  /// Per-block transfer functions, indexed by ir::BasicBlock::getId().
  std::vector<Transfer<Set>> Transfers;
  /// Initial value of every interior In/Out fact: the lattice bottom for
  /// union problems (all zeros) or top for intersect problems (all ones).
  Set Interior{};
  /// Boundary fact: the In of the entry block (forward) or the default Out
  /// of every exit block — a block with no successors (backward).
  Set Boundary{};
  /// Backward problems only: per-exit-block overrides of Boundary, e.g. a
  /// Ret block whose live-out is the caller's demand while a Halt block's
  /// is empty.  Pairs of (block id, value).
  std::vector<std::pair<unsigned, Set>> ExitOverrides;
};

/// Fixed-point facts, indexed by block id.
template <typename Set> struct Solution {
  std::vector<Set> In;
  std::vector<Set> Out;
  /// Number of full sweeps until nothing changed (>= 1 on any non-empty
  /// CFG; bounded-round tests key on this).
  unsigned Rounds = 0;
};

template <typename Set>
Solution<Set> solve(const cfg::CFGView &View, const Problem<Set> &P) {
  const unsigned N = View.blockCount();
  assert(P.Transfers.size() == N && "one transfer per block");

  Solution<Set> S;
  S.In.assign(N, P.Interior);
  S.Out.assign(N, P.Interior);

  // Iteration order: RPO for forward problems, reverse RPO (postorder) for
  // backward ones, so most facts propagate in one sweep on reducible CFGs.
  std::vector<const ir::BasicBlock *> Order = View.reversePostorder();
  if (P.Dir == Direction::Backward)
    std::reverse(Order.begin(), Order.end());

  const unsigned EntryId =
      View.getFunction().getEntry() ? View.getFunction().getEntry()->getId()
                                    : 0;

  const auto ExitValue = [&](unsigned Id) -> Set {
    for (const auto &[OverrideId, V] : P.ExitOverrides)
      if (OverrideId == Id)
        return V;
    return P.Boundary;
  };

  const auto Apply = [](const Transfer<Set> &T, const Set &In) -> Set {
    return T.Gen | (In & ~T.Kill);
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++S.Rounds;
    for (const ir::BasicBlock *B : Order) {
      const unsigned Id = B->getId();
      if (P.Dir == Direction::Forward) {
        Set NewIn = P.Interior;
        if (Id == EntryId) {
          NewIn = P.Boundary;
        } else {
          bool First = true;
          for (const ir::BasicBlock *Pred : View.predecessors(Id)) {
            if (First) {
              NewIn = S.Out[Pred->getId()];
              First = false;
            } else if (P.MeetKind == Meet::Union) {
              NewIn = NewIn | S.Out[Pred->getId()];
            } else {
              NewIn = NewIn & S.Out[Pred->getId()];
            }
          }
        }
        Set NewOut = Apply(P.Transfers[Id], NewIn);
        if (NewIn != S.In[Id] || NewOut != S.Out[Id]) {
          S.In[Id] = std::move(NewIn);
          S.Out[Id] = std::move(NewOut);
          Changed = true;
        }
      } else {
        Set NewOut = P.Interior;
        if (View.successors(Id).empty()) {
          NewOut = ExitValue(Id);
        } else {
          bool First = true;
          for (const ir::BasicBlock *Succ : View.successors(Id)) {
            if (First) {
              NewOut = S.In[Succ->getId()];
              First = false;
            } else if (P.MeetKind == Meet::Union) {
              NewOut = NewOut | S.In[Succ->getId()];
            } else {
              NewOut = NewOut & S.In[Succ->getId()];
            }
          }
        }
        Set NewIn = Apply(P.Transfers[Id], NewOut);
        if (NewIn != S.In[Id] || NewOut != S.Out[Id]) {
          S.In[Id] = std::move(NewIn);
          S.Out[Id] = std::move(NewOut);
          Changed = true;
        }
      }
    }
  }
  return S;
}

} // namespace dmp::dataflow

#endif // DMP_DATAFLOW_SOLVER_H
