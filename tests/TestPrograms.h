//===- tests/TestPrograms.h - Shared program builders for tests ----*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small hand-built programs reused across the unit tests: a simple
/// hammock, a nested hammock, a frequently-hammock, a counted loop, a
/// function with two returns, and a loop of fall-through blocks around a
/// mid-block call.  Each builder returns a finalized, verified
/// program.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_TESTS_TESTPROGRAMS_H
#define DMP_TESTS_TESTPROGRAMS_H

#include "analyze/Analyze.h"
#include "ir/IRBuilder.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

namespace dmp::test {

/// Aborts with rendered diagnostics when \p P fails the IR lint: a broken
/// builder is a bug in the test itself, not something to EXPECT around.
inline void requireClean(const ir::Program &P) {
  analyze::DiagnosticSink Sink;
  if (analyze::lintProgram(P, &Sink).ok())
    return;
  std::fprintf(stderr, "test program %s failed lint:\n%s",
               P.getName().c_str(), Sink.renderText().c_str());
  std::abort();
}

/// Handles to interesting blocks of a built program.
struct ProgramHandles {
  std::unique_ptr<ir::Program> Prog;
  ir::BasicBlock *BranchBlock = nullptr; ///< Block ending in the hammock br.
  ir::BasicBlock *TakenSide = nullptr;
  ir::BasicBlock *FallSide = nullptr;
  ir::BasicBlock *Merge = nullptr;
  ir::BasicBlock *RareSide = nullptr;
  ir::BasicBlock *End = nullptr;
  uint32_t BranchAddr = 0; ///< Address of the hammock/loop branch.
};

/// if (mem[r1]) { r4 += body } else { r4 -= body }; merge; loop N times.
///
///   entry -> header:{ld, br} -> F -> M / T -> M ; M:{i++, br<N header} exit
inline ProgramHandles buildSimpleHammockLoop(unsigned BodyLen = 4,
                                             unsigned Iters = 64) {
  ProgramHandles H;
  H.Prog = std::make_unique<ir::Program>("simple-hammock");
  ir::Function *F = H.Prog->createFunction("main");
  ir::IRBuilder B(*H.Prog);

  ir::BasicBlock *Entry = F->createBlock("entry");
  ir::BasicBlock *Header = F->createBlock("header");
  ir::BasicBlock *Fall = F->createBlock("fall");
  ir::BasicBlock *Taken = F->createBlock("taken");
  ir::BasicBlock *Merge = F->createBlock("merge");
  ir::BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  B.loadImm(1, 0);                           // r1 = index
  B.loadImm(2, static_cast<int64_t>(Iters)); // r2 = bound
  B.loadImm(4, 0);

  B.setInsertPoint(Header);
  B.load(3, 1, 0); // r3 = mem[r1]
  B.condBr(ir::BrCond::Ne, 3, 0, Taken);

  B.setInsertPoint(Fall);
  B.emitFiller(BodyLen, 8);
  B.addI(4, 4, 1);
  B.jmp(Merge);

  B.setInsertPoint(Taken);
  B.emitFiller(BodyLen, 8);
  B.addI(4, 4, -1);
  // Falls through to Merge.

  B.setInsertPoint(Merge);
  B.addI(1, 1, 1);
  B.condBr(ir::BrCond::Lt, 1, 2, Header);

  B.setInsertPoint(Exit);
  B.halt();

  H.Prog->finalize();
  requireClean(*H.Prog);
  H.BranchBlock = Header;
  H.TakenSide = Taken;
  H.FallSide = Fall;
  H.Merge = Merge;
  H.BranchAddr = Header->instructions().back().Addr;
  return H;
}

/// A frequently-hammock: the taken side usually merges at M but rarely
/// takes a long path R that bypasses M to End.
///
///   header:{ld,br} -> F -> M ; T:{ld,br} -> T2 -> M / R(long) -> End
///   M:{merge filler} -> End ; End: loop back.
inline ProgramHandles buildFreqHammockLoop(unsigned RareLen = 60,
                                           unsigned Iters = 64) {
  ProgramHandles H;
  H.Prog = std::make_unique<ir::Program>("freq-hammock");
  ir::Function *F = H.Prog->createFunction("main");
  ir::IRBuilder B(*H.Prog);

  ir::BasicBlock *Entry = F->createBlock("entry");
  ir::BasicBlock *Header = F->createBlock("header");
  ir::BasicBlock *Fall = F->createBlock("fall");
  ir::BasicBlock *Taken = F->createBlock("taken");
  ir::BasicBlock *TakenBody = F->createBlock("taken2");
  ir::BasicBlock *Rare = F->createBlock("rare");
  ir::BasicBlock *Merge = F->createBlock("merge");
  ir::BasicBlock *End = F->createBlock("end");
  ir::BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  B.loadImm(1, 0);
  B.loadImm(2, static_cast<int64_t>(Iters));

  B.setInsertPoint(Header);
  B.load(3, 1, 0);
  B.condBr(ir::BrCond::Ne, 3, 0, Taken);

  B.setInsertPoint(Fall);
  B.emitFiller(4, 8);
  B.jmp(Merge);

  B.setInsertPoint(Taken);
  B.load(5, 1, 4096); // rare selector
  B.condBr(ir::BrCond::Ne, 5, 0, Rare);

  B.setInsertPoint(TakenBody);
  B.emitFiller(4, 8);
  B.jmp(Merge);

  B.setInsertPoint(Rare);
  B.emitFiller(RareLen, 8);
  B.jmp(End);

  B.setInsertPoint(Merge);
  B.emitFiller(6, 8);
  // Falls through to End.

  B.setInsertPoint(End);
  B.addI(1, 1, 1);
  B.condBr(ir::BrCond::Lt, 1, 2, Header);

  B.setInsertPoint(Exit);
  B.halt();

  H.Prog->finalize();
  requireClean(*H.Prog);
  H.BranchBlock = Header;
  H.TakenSide = Taken;
  H.FallSide = Fall;
  H.Merge = Merge;
  H.RareSide = Rare;
  H.End = End;
  H.BranchAddr = Header->instructions().back().Addr;
  return H;
}

/// do { body } while (++i < mem[n]); with trip counts from memory.
inline ProgramHandles buildDataLoop(unsigned BodyLen = 4,
                                    unsigned Outer = 64) {
  ProgramHandles H;
  H.Prog = std::make_unique<ir::Program>("data-loop");
  ir::Function *F = H.Prog->createFunction("main");
  ir::IRBuilder B(*H.Prog);

  ir::BasicBlock *Entry = F->createBlock("entry");
  ir::BasicBlock *OuterHdr = F->createBlock("outer");
  ir::BasicBlock *Loop = F->createBlock("loop");
  ir::BasicBlock *Post = F->createBlock("post");
  ir::BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  B.loadImm(1, 0);
  B.loadImm(2, static_cast<int64_t>(Outer));

  B.setInsertPoint(OuterHdr);
  B.load(7, 1, 0); // trip count
  B.loadImm(6, 0);

  B.setInsertPoint(Loop);
  B.emitFiller(BodyLen, 8);
  B.addI(6, 6, 1);
  B.condBr(ir::BrCond::Lt, 6, 7, Loop);

  B.setInsertPoint(Post);
  B.emitFiller(6, 8);
  B.addI(1, 1, 1);
  B.condBr(ir::BrCond::Lt, 1, 2, OuterHdr);

  B.setInsertPoint(Exit);
  B.halt();

  H.Prog->finalize();
  requireClean(*H.Prog);
  H.BranchBlock = Loop;
  H.Merge = Post;
  H.BranchAddr = Loop->instructions().back().Addr;
  return H;
}

/// main calls f once per iteration; f's two paths end in different returns.
inline ProgramHandles buildRetFuncLoop(unsigned Iters = 64) {
  ProgramHandles H;
  H.Prog = std::make_unique<ir::Program>("ret-func");
  ir::Function *Main = H.Prog->createFunction("main");
  ir::Function *Callee = H.Prog->createFunction("f");
  ir::IRBuilder B(*H.Prog);

  ir::BasicBlock *Entry = Main->createBlock("entry");
  ir::BasicBlock *Header = Main->createBlock("header");
  ir::BasicBlock *Exit = Main->createBlock("exit");

  ir::BasicBlock *FEntry = Callee->createBlock("fentry");
  ir::BasicBlock *FFall = Callee->createBlock("ffall");
  ir::BasicBlock *FTaken = Callee->createBlock("ftaken");

  B.setInsertPoint(Entry);
  B.loadImm(1, 0);
  B.loadImm(2, static_cast<int64_t>(Iters));

  B.setInsertPoint(Header);
  B.call(Callee);
  B.emitFiller(6, 8);
  B.addI(1, 1, 1);
  B.condBr(ir::BrCond::Lt, 1, 2, Header);

  B.setInsertPoint(Exit);
  B.halt();

  B.setInsertPoint(FEntry);
  B.load(3, 1, 0);
  B.condBr(ir::BrCond::Ne, 3, 0, FTaken);

  B.setInsertPoint(FFall);
  B.emitFiller(4, 8);
  B.ret();

  B.setInsertPoint(FTaken);
  B.emitFiller(4, 8);
  B.ret();

  H.Prog->finalize();
  requireClean(*H.Prog);
  H.BranchBlock = FEntry;
  H.TakenSide = FTaken;
  H.FallSide = FFall;
  H.BranchAddr = FEntry->instructions().back().Addr;
  return H;
}

/// Straight-line code split across blocks that fall through into one
/// another, with a call in the middle of a block: every leader of the loop
/// body except the header is entered by falling through, and fusable ALU
/// groups (AddI; Xor | Add) straddle each of those leaders.
///
///   entry -> header:{addi, xor, call f, addi, xor} -> mid:{add, ...}
///         -> tail:{add, ld, st, i++, br<N header} -> exit
///   f: fentry:{ld, addi, xor} -> fmid:{add, filler, ret}
inline ProgramHandles buildFallThroughCallLoop(unsigned Iters = 64) {
  ProgramHandles H;
  H.Prog = std::make_unique<ir::Program>("fallthrough-call");
  ir::Function *Main = H.Prog->createFunction("main");
  ir::Function *Callee = H.Prog->createFunction("f");
  ir::IRBuilder B(*H.Prog);

  ir::BasicBlock *Entry = Main->createBlock("entry");
  ir::BasicBlock *Header = Main->createBlock("header");
  ir::BasicBlock *Mid = Main->createBlock("mid");
  ir::BasicBlock *Tail = Main->createBlock("tail");
  ir::BasicBlock *Exit = Main->createBlock("exit");
  ir::BasicBlock *FEntry = Callee->createBlock("fentry");
  ir::BasicBlock *FMid = Callee->createBlock("fmid");

  B.setInsertPoint(Entry);
  B.loadImm(1, 0);
  B.loadImm(2, static_cast<int64_t>(Iters));

  B.setInsertPoint(Header);
  B.addI(8, 9, 1);
  B.xor_(8, 8, 9);
  B.call(Callee);
  B.addI(10, 11, 3);
  B.xor_(10, 10, 11);
  // Falls through to Mid.

  B.setInsertPoint(Mid);
  B.add(10, 10, 11);
  B.addI(12, 13, 5);
  B.xor_(12, 12, 13);
  // Falls through to Tail.

  B.setInsertPoint(Tail);
  B.add(12, 12, 10);
  B.load(3, 1, 0);
  B.store(12, 1, 512);
  B.addI(1, 1, 1);
  B.condBr(ir::BrCond::Lt, 1, 2, Header);

  B.setInsertPoint(Exit);
  B.halt();

  B.setInsertPoint(FEntry);
  B.load(4, 1, 0);
  B.addI(5, 4, 7);
  B.xor_(5, 5, 4);
  // Falls through to FMid.

  B.setInsertPoint(FMid);
  B.add(5, 5, 8);
  B.emitFiller(5, 14);
  B.ret();

  H.Prog->finalize();
  requireClean(*H.Prog);
  H.BranchBlock = Header;
  H.FallSide = Mid;
  H.Merge = Tail;
  H.BranchAddr = Tail->instructions().back().Addr;
  return H;
}

/// Memory image where word[i] = (i % Period == 0), i.e. a periodic branch
/// condition, or a Bernoulli image from a fixed seed.
inline std::vector<int64_t> alternatingImage(size_t Words, unsigned Period) {
  std::vector<int64_t> Image(Words, 0);
  for (size_t I = 0; I < Words; ++I)
    Image[I] = (I % Period == 0) ? 1 : 0;
  return Image;
}

} // namespace dmp::test

#endif // DMP_TESTS_TESTPROGRAMS_H
