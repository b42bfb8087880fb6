//===- tests/reference_parser.cpp -----------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
//
// The pre-refactor frontend, kept as-is: a two-pass design that first
// materialises every token into a vector (with a std::string per
// identifier) and then runs recursive descent over it. It exists for
// two jobs (see reference_parser.h):
//
//  - the E24 baseline: bench/parse_cost measures the streaming
//    state-stack frontend against this one on generated specs;
//  - the differential oracle: the round-trip fuzz suite parses every
//    input with both frontends and requires accept/reject agreement
//    and print-identical trees.
//
// Apart from allocating into an AstArena (the shared_ptr node storage
// is gone repo-wide), the code is the old parser.cpp verbatim —
// including its line-only diagnostics. Do not "improve" it; its value
// is being the old design.
//
//===----------------------------------------------------------------------===//

#include "reference_parser.h"

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

using namespace rprosa;
using namespace rprosa::caesium;

namespace {

/// Token kinds of the concrete syntax.
enum class Tok : std::uint8_t {
  Ident,  ///< while, if, else, fuel, read, free, marker names, ...
  Reg,    ///< rN
  Buf,    ///< bufN
  Number, ///< decimal literal (the '-' of -1 is a separate token)
  LParen,
  RParen,
  LBrace,
  RBrace,
  Semi,
  Comma,
  Assign, ///< =
  Bang,   ///< !
  Plus,
  Minus,
  Slash, ///< / (a lone one; '//' still starts a comment)
  Percent,
  Lt,
  EqEq,
  Amp, ///< & (of &sched)
  End,
};

struct Token {
  Tok K = Tok::End;
  std::string Text;
  std::uint64_t Num = 0;
  std::size_t Line = 1;
};

/// Lexer for the C-like syntax. '#' and '//' start line comments.
class RefLexer {
public:
  explicit RefLexer(std::string_view Src) : Src(Src) {}

  bool lex(std::vector<Token> &Out, std::string &Err) {
    std::size_t I = 0, Line = 1;
    auto Push = [&](Tok K, std::string Text = "", std::uint64_t N = 0) {
      Out.push_back(Token{K, std::move(Text), N, Line});
    };
    while (I < Src.size()) {
      char C = Src[I];
      if (C == '\n') {
        ++Line;
        ++I;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(C))) {
        ++I;
        continue;
      }
      if (C == '#' || (C == '/' && I + 1 < Src.size() && Src[I + 1] == '/')) {
        while (I < Src.size() && Src[I] != '\n')
          ++I;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(C))) {
        // Overflow-checked accumulation: literals beyond the Value range
        // are a diagnostic, not a silent wrap.
        constexpr std::uint64_t Max = INT64_MAX;
        std::uint64_t N = 0;
        bool TooBig = false;
        while (I < Src.size() &&
               std::isdigit(static_cast<unsigned char>(Src[I]))) {
          auto D = static_cast<std::uint64_t>(Src[I++] - '0');
          if (N > (Max - D) / 10)
            TooBig = true;
          else
            N = N * 10 + D;
        }
        if (TooBig) {
          Err = "line " + std::to_string(Line) + ": numeric literal too large";
          return false;
        }
        Push(Tok::Number, "", N);
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
        std::string W;
        while (I < Src.size() &&
               (std::isalnum(static_cast<unsigned char>(Src[I])) ||
                Src[I] == '_'))
          W += Src[I++];
        // rN and bufN are their own token kinds.
        if (W.size() >= 2 && W[0] == 'r' &&
            std::isdigit(static_cast<unsigned char>(W[1]))) {
          Push(Tok::Reg, W.substr(1));
        } else if (W.size() >= 4 && W.rfind("buf", 0) == 0 &&
                   std::isdigit(static_cast<unsigned char>(W[3]))) {
          Push(Tok::Buf, W.substr(3));
        } else {
          Push(Tok::Ident, W);
        }
        continue;
      }
      switch (C) {
      case '(':
        Push(Tok::LParen);
        break;
      case ')':
        Push(Tok::RParen);
        break;
      case '{':
        Push(Tok::LBrace);
        break;
      case '}':
        Push(Tok::RBrace);
        break;
      case ';':
        Push(Tok::Semi);
        break;
      case ',':
        Push(Tok::Comma);
        break;
      case '!':
        Push(Tok::Bang);
        break;
      case '+':
        Push(Tok::Plus);
        break;
      case '-':
        Push(Tok::Minus);
        break;
      case '/':
        // A lone '/' is division; '//' was consumed as a comment above.
        Push(Tok::Slash);
        break;
      case '%':
        Push(Tok::Percent);
        break;
      case '&':
        Push(Tok::Amp);
        break;
      case '<':
        Push(Tok::Lt);
        break;
      case '=':
        if (I + 1 < Src.size() && Src[I + 1] == '=') {
          Push(Tok::EqEq);
          ++I;
        } else {
          Push(Tok::Assign);
        }
        break;
      default:
        Err = "line " + std::to_string(Line) + ": unexpected character '" +
              std::string(1, C) + "'";
        return false;
      }
      ++I;
    }
    Push(Tok::End);
    return true;
  }

private:
  std::string_view Src;
};

/// Recursive-descent parser over the token stream.
class RefParser {
public:
  RefParser(AstArena &A, std::vector<Token> Toks, CheckResult *Diags)
      : A(A), Toks(std::move(Toks)), Diags(Diags) {}

  std::optional<StmtPtr> program() {
    std::vector<StmtPtr> Stmts;
    while (!at(Tok::End)) {
      std::optional<StmtPtr> S = stmt();
      if (!S)
        return std::nullopt;
      Stmts.push_back(std::move(*S));
    }
    return A.seq(Stmts);
  }

private:
  const Token &peek() const { return Toks[Pos]; }
  bool at(Tok K) const { return peek().K == K; }
  const Token &advance() { return Toks[Pos++]; }

  bool expect(Tok K, const char *What) {
    if (at(K)) {
      advance();
      return true;
    }
    fail(std::string("expected ") + What);
    return false;
  }

  void fail(const std::string &Why) {
    if (Diags)
      Diags->addFailure("parse error at line " + std::to_string(peek().Line) +
                        ": " + Why);
  }

  /// Checked digit-string parse of a register/buffer suffix.
  static constexpr std::uint64_t MaxIndex = 4095;

  std::optional<std::uint64_t> regOrBufIndex(Tok K, const char *What) {
    if (!at(K)) {
      fail(std::string("expected ") + What);
      return std::nullopt;
    }
    const Token &T = peek();
    std::uint64_t N = 0;
    bool TooBig = false;
    for (char C : T.Text) {
      auto D = static_cast<std::uint64_t>(C - '0');
      if (N > (MaxIndex - D) / 10) {
        TooBig = true;
        break;
      }
      N = N * 10 + D;
    }
    if (TooBig || N > MaxIndex) {
      fail(std::string(What) + " index '" + T.Text + "' exceeds the maximum " +
           std::to_string(MaxIndex));
      return std::nullopt;
    }
    advance();
    return N;
  }

  /// RAII recursion limiter.
  static constexpr unsigned MaxDepth = 256;

  struct DepthGuard {
    explicit DepthGuard(RefParser &P) : P(P) { ++P.Depth; }
    ~DepthGuard() { --P.Depth; }
    bool ok() const { return P.Depth <= MaxDepth; }
    RefParser &P;
  };

  /// primary := number | -number | rN | fuel() | '(' expr op expr ')'
  ///          | '!' primary
  std::optional<ExprPtr> expr() {
    DepthGuard G(*this);
    if (!G.ok()) {
      fail("expression nesting exceeds the maximum depth of " +
           std::to_string(MaxDepth));
      return std::nullopt;
    }
    if (at(Tok::Number))
      return A.lit(static_cast<Value>(advance().Num));
    if (at(Tok::Minus)) {
      advance();
      if (!at(Tok::Number)) {
        fail("expected a number after '-'");
        return std::nullopt;
      }
      return A.lit(-static_cast<Value>(advance().Num));
    }
    if (at(Tok::Reg)) {
      std::optional<std::uint64_t> R = regOrBufIndex(Tok::Reg, "a register");
      if (!R)
        return std::nullopt;
      return A.reg(static_cast<RegId>(*R));
    }
    if (at(Tok::Bang)) {
      advance();
      std::optional<ExprPtr> Inner = expr();
      if (!Inner)
        return std::nullopt;
      return A.notE(*Inner);
    }
    if (at(Tok::Ident) && peek().Text == "fuel") {
      advance();
      if (!expect(Tok::LParen, "'(' after fuel") ||
          !expect(Tok::RParen, "')' after fuel("))
        return std::nullopt;
      return A.fuel();
    }
    if (at(Tok::LParen)) {
      advance();
      std::optional<ExprPtr> L = expr();
      if (!L)
        return std::nullopt;
      Tok Op = peek().K;
      if (Op != Tok::Plus && Op != Tok::Minus && Op != Tok::Slash &&
          Op != Tok::Percent && Op != Tok::Lt && Op != Tok::EqEq) {
        fail("expected a binary operator");
        return std::nullopt;
      }
      advance();
      std::optional<ExprPtr> R = expr();
      if (!R || !expect(Tok::RParen, "')'"))
        return std::nullopt;
      switch (Op) {
      case Tok::Plus:
        return A.add(*L, *R);
      case Tok::Minus:
        return A.sub(*L, *R);
      case Tok::Slash:
        return A.divE(*L, *R);
      case Tok::Percent:
        return A.modE(*L, *R);
      case Tok::Lt:
        return A.less(*L, *R);
      default:
        return A.eq(*L, *R);
      }
    }
    fail("expected an expression");
    return std::nullopt;
  }

  std::optional<StmtPtr> block() {
    if (!expect(Tok::LBrace, "'{'"))
      return std::nullopt;
    std::vector<StmtPtr> Stmts;
    while (!at(Tok::RBrace) && !at(Tok::End)) {
      std::optional<StmtPtr> S = stmt();
      if (!S)
        return std::nullopt;
      Stmts.push_back(std::move(*S));
    }
    if (!expect(Tok::RBrace, "'}'"))
      return std::nullopt;
    return A.seq(Stmts);
  }

  /// "(&sched, bufN)" tail of the queue builtins.
  std::optional<BufId> schedArgs() {
    if (!expect(Tok::LParen, "'('") || !expect(Tok::Amp, "'&sched'"))
      return std::nullopt;
    if (!at(Tok::Ident) || peek().Text != "sched") {
      fail("expected 'sched'");
      return std::nullopt;
    }
    advance();
    if (!expect(Tok::Comma, "','"))
      return std::nullopt;
    std::optional<std::uint64_t> B = regOrBufIndex(Tok::Buf, "a buffer");
    if (!B || !expect(Tok::RParen, "')'"))
      return std::nullopt;
    return static_cast<BufId>(*B);
  }

  /// Stamps the freshly built statement with the line of its first
  /// token. Structured statements carry the line of their keyword; the
  /// Seq wrappers of program()/block() stay at line 0.
  std::optional<StmtPtr> stmt() {
    std::size_t Line = peek().Line;
    std::optional<StmtPtr> S = stmtInner();
    if (S && *S)
      A.setLine(*S, static_cast<std::uint32_t>(Line));
    return S;
  }

  std::optional<StmtPtr> stmtInner() {
    DepthGuard G(*this);
    if (!G.ok()) {
      fail("statement nesting exceeds the maximum depth of " +
           std::to_string(MaxDepth));
      return std::nullopt;
    }
    // Control flow.
    if (at(Tok::Ident) && peek().Text == "while") {
      advance();
      if (!expect(Tok::LParen, "'('"))
        return std::nullopt;
      std::optional<ExprPtr> Cond = expr();
      if (!Cond || !expect(Tok::RParen, "')'"))
        return std::nullopt;
      std::optional<StmtPtr> Body = block();
      if (!Body)
        return std::nullopt;
      return A.whileLoop(*Cond, *Body);
    }
    if (at(Tok::Ident) && peek().Text == "if") {
      advance();
      if (!expect(Tok::LParen, "'('"))
        return std::nullopt;
      std::optional<ExprPtr> Cond = expr();
      if (!Cond || !expect(Tok::RParen, "')'"))
        return std::nullopt;
      std::optional<StmtPtr> Then = block();
      if (!Then)
        return std::nullopt;
      StmtPtr Else = nullptr;
      if (at(Tok::Ident) && peek().Text == "else") {
        advance();
        std::optional<StmtPtr> E = block();
        if (!E)
          return std::nullopt;
        Else = *E;
      }
      return A.ifThen(*Cond, *Then, Else);
    }

    // Marker functions and free().
    if (at(Tok::Ident)) {
      const std::string &W = peek().Text;
      auto MarkerFor = [&](const std::string &Name) -> std::optional<TraceFn> {
        if (Name == "selection_start")
          return TraceFn::TrSelection;
        if (Name == "dispatch_start")
          return TraceFn::TrDisp;
        if (Name == "execution_start")
          return TraceFn::TrExec;
        if (Name == "completion_start")
          return TraceFn::TrCompl;
        if (Name == "idling_start")
          return TraceFn::TrIdling;
        return std::nullopt;
      };
      if (std::optional<TraceFn> Fn = MarkerFor(W)) {
        advance();
        if (!expect(Tok::LParen, "'('"))
          return std::nullopt;
        // dispatch/execution/completion name the job's buffer; the
        // others take no argument (mirrors the printer exactly).
        bool WantsBuf = *Fn == TraceFn::TrDisp || *Fn == TraceFn::TrExec ||
                        *Fn == TraceFn::TrCompl;
        BufId Buf = 0;
        if (WantsBuf) {
          std::optional<std::uint64_t> B = regOrBufIndex(Tok::Buf, "a buffer");
          if (!B)
            return std::nullopt;
          Buf = static_cast<BufId>(*B);
        } else if (at(Tok::Buf)) {
          fail("'" + W + "' takes no argument");
          return std::nullopt;
        }
        if (!expect(Tok::RParen, "')'") || !expect(Tok::Semi, "';'"))
          return std::nullopt;
        return A.traceE(*Fn, Buf);
      }
      if (W == "free") {
        advance();
        if (!expect(Tok::LParen, "'('"))
          return std::nullopt;
        std::optional<std::uint64_t> B = regOrBufIndex(Tok::Buf, "a buffer");
        if (!B || !expect(Tok::RParen, "')'") || !expect(Tok::Semi, "';'"))
          return std::nullopt;
        return A.freeBuf(static_cast<BufId>(*B));
      }
      if (W == "npfp_enqueue") {
        advance();
        std::optional<BufId> B = schedArgs();
        if (!B || !expect(Tok::Semi, "';'"))
          return std::nullopt;
        return A.enqueue(*B);
      }
    }

    // Assignments: rN = expr; | rN = read(rM, bufK); |
    //              rN = npfp_dequeue(&sched, bufK);
    if (at(Tok::Reg)) {
      std::optional<std::uint64_t> DstIdx =
          regOrBufIndex(Tok::Reg, "a register");
      if (!DstIdx)
        return std::nullopt;
      RegId Dst = static_cast<RegId>(*DstIdx);
      if (!expect(Tok::Assign, "'='"))
        return std::nullopt;
      if (at(Tok::Ident) && peek().Text == "read") {
        advance();
        if (!expect(Tok::LParen, "'('"))
          return std::nullopt;
        std::optional<std::uint64_t> Sock =
            regOrBufIndex(Tok::Reg, "a register");
        if (!Sock || !expect(Tok::Comma, "','"))
          return std::nullopt;
        std::optional<std::uint64_t> Buf = regOrBufIndex(Tok::Buf, "a buffer");
        if (!Buf || !expect(Tok::RParen, "')'") || !expect(Tok::Semi, "';'"))
          return std::nullopt;
        return A.readE(static_cast<RegId>(*Sock), static_cast<BufId>(*Buf),
                       Dst);
      }
      if (at(Tok::Ident) && peek().Text == "npfp_dequeue") {
        advance();
        std::optional<BufId> B = schedArgs();
        if (!B || !expect(Tok::Semi, "';'"))
          return std::nullopt;
        return A.dequeue(*B, Dst);
      }
      std::optional<ExprPtr> E = expr();
      if (!E || !expect(Tok::Semi, "';'"))
        return std::nullopt;
      return A.setReg(Dst, *E);
    }

    fail("expected a statement, got '" +
         (peek().Text.empty() ? std::to_string(peek().Num) : peek().Text) +
         "'");
    return std::nullopt;
  }

  AstArena &A;
  std::vector<Token> Toks;
  CheckResult *Diags;
  std::size_t Pos = 0;
  unsigned Depth = 0;
};

} // namespace

std::optional<StmtPtr>
rprosa::caesium::parseProgramReference(AstArena &A, std::string_view Source,
                                       CheckResult *Diags) {
  RefLexer L(Source);
  std::vector<Token> Toks;
  std::string Err;
  if (!L.lex(Toks, Err)) {
    if (Diags)
      Diags->addFailure(Err);
    return std::nullopt;
  }
  RefParser P(A, std::move(Toks), Diags);
  return P.program();
}
