//===- perfbench/src/common.cpp -------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include <cstdio>

using namespace perfbench;

std::uint64_t perfbench::fnv1a(std::string_view S, std::uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string perfbench::hex64(std::uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

Tracer::Scope::Scope(Tracer *T, const char *Name) : T(T) {
  if (!T)
    return;
  Span S;
  S.Name = Name;
  S.Op = T->CurOp;
  S.Parent = T->Stack.empty() ? -1 : T->Stack.back();
  Id = static_cast<int>(T->Spans.size());
  T->Spans.push_back(std::move(S));
  T->Stack.push_back(Id);
  // Start last, so the bookkeeping above is outside the span.
  T->Spans[Id].StartMs = T->nowMs();
}

Tracer::Scope::~Scope() {
  if (!T)
    return;
  Span &S = T->Spans[Id];
  S.EndMs = T->nowMs();
  T->Stack.pop_back();
  if (S.Parent >= 0)
    T->Spans[S.Parent].ChildMs += S.EndMs - S.StartMs;
}

std::map<std::string, double> Tracer::selfTimes() const {
  std::map<std::string, double> Out = ExtraSelf;
  for (const Span &S : Spans)
    Out[S.Name] += S.EndMs - S.StartMs - S.ChildMs;
  return Out;
}
