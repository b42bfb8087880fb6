//===- caesium/parser.cpp -------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
//
// The streaming frontend. One pass over the source: a state-stack
// scanner (the gbuzykin/code-format shape — a stack of lexical modes,
// so nested constructs like comments are a push/pop, not a special
// case in every rule) hands zero-copy tokens to a one-token-lookahead
// recursive-descent parser that allocates nodes straight into the
// caller's AstArena. No token vector, no per-token strings: a Token is
// a kind, a string_view into the source, and a line:col.
//
//===----------------------------------------------------------------------===//

#include "caesium/parser.h"

#include <array>
#include <cstdint>
#include <vector>

using namespace rprosa;
using namespace rprosa::caesium;

namespace {

/// Token kinds of the concrete syntax.
enum class Tok : std::uint8_t {
  Ident,  ///< while, if, else, fuel, read, free, marker names, ...
  Reg,    ///< rN (Text = the digit suffix)
  Buf,    ///< bufN (Text = the digit suffix)
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
  Error, ///< Lexical error; Text = reason, position = lexeme start.
};

struct Token {
  Tok K = Tok::End;
  std::string_view Text;
  std::uint64_t Num = 0;
  std::uint32_t Line = 1;
  std::uint32_t Col = 1;
};

/// Character classes, table-driven: one load instead of a cascade of
/// isalpha/isdigit calls in the scanner's hot loop.
enum class CharClass : std::uint8_t {
  Space,   ///< ' ', '\t', '\r', '\v', '\f'
  Newline, ///< '\n'
  Digit,
  Word, ///< [A-Za-z_]
  Punct,
  Other,
};

constexpr std::array<CharClass, 256> makeCharClasses() {
  std::array<CharClass, 256> T{};
  for (unsigned C = 0; C < 256; ++C)
    T[C] = CharClass::Other;
  for (char C : {' ', '\t', '\r', '\v', '\f'})
    T[static_cast<unsigned char>(C)] = CharClass::Space;
  T[static_cast<unsigned char>('\n')] = CharClass::Newline;
  for (unsigned C = '0'; C <= '9'; ++C)
    T[C] = CharClass::Digit;
  for (unsigned C = 'a'; C <= 'z'; ++C)
    T[C] = CharClass::Word;
  for (unsigned C = 'A'; C <= 'Z'; ++C)
    T[C] = CharClass::Word;
  T[static_cast<unsigned char>('_')] = CharClass::Word;
  for (char C : {'(', ')', '{', '}', ';', ',', '=', '!', '+', '-', '/', '%',
                 '<', '&', '#'})
    T[static_cast<unsigned char>(C)] = CharClass::Punct;
  return T;
}

constexpr std::array<CharClass, 256> CharClasses = makeCharClasses();

inline CharClass classOf(char C) {
  return CharClasses[static_cast<unsigned char>(C)];
}

/// The scanner's lexical modes. Only two today, but the stack is the
/// point: a future block comment or string literal is one more mode
/// and a push/pop, with no changes to the token rules.
enum class LexState : std::uint8_t {
  Source,      ///< Normal token scanning.
  LineComment, ///< Inside '#...' or '//...'; ends at newline/EOF.
};

/// Single-pass streaming lexer: next() scans one token on demand.
/// Tokens are string_views into Src — zero allocation per token.
class Lexer {
public:
  explicit Lexer(std::string_view Src) : Src(Src) {
    States.reserve(8);
    States.push_back(LexState::Source);
  }

  /// Scans the next token into \p T. The parser passes its lookahead
  /// slot, so a token is written once where it is read, never built in
  /// a temporary and copied over.
  void next(Token &T) {
    for (;;) {
      if (States.back() == LexState::LineComment) {
        while (I < Src.size() && Src[I] != '\n')
          ++I;
        States.pop_back();
        continue;
      }
      if (I >= Src.size())
        return set(T, Tok::End, I);
      char C = Src[I];
      switch (classOf(C)) {
      case CharClass::Space:
        ++I;
        continue;
      case CharClass::Newline:
        ++I;
        ++Line;
        LineStart = I;
        continue;
      case CharClass::Digit:
        return number(T);
      case CharClass::Word:
        return word(T);
      case CharClass::Punct:
        break;
      case CharClass::Other:
        return error(T, I, std::string("unexpected character '") + C + "'");
      }
      if (C == '#' || (C == '/' && I + 1 < Src.size() && Src[I + 1] == '/')) {
        States.push_back(LexState::LineComment);
        continue;
      }
      Tok K = punctKind(C);
      set(T, K, I);
      I += K == Tok::EqEq ? 2 : 1;
      return;
    }
  }

private:
  std::uint32_t col(std::size_t At) const {
    return static_cast<std::uint32_t>(At - LineStart + 1);
  }

  /// Writes every field of \p T: the token starting at offset \p At.
  void set(Token &T, Tok K, std::size_t At, std::string_view Text = {},
           std::uint64_t Num = 0) const {
    T.K = K;
    T.Text = Text;
    T.Num = Num;
    T.Line = Line;
    T.Col = col(At);
  }

  void error(Token &T, std::size_t At, std::string Reason) {
    ErrReason = std::move(Reason);
    set(T, Tok::Error, At, ErrReason);
  }

  Tok punctKind(char C) {
    switch (C) {
    case '(':
      return Tok::LParen;
    case ')':
      return Tok::RParen;
    case '{':
      return Tok::LBrace;
    case '}':
      return Tok::RBrace;
    case ';':
      return Tok::Semi;
    case ',':
      return Tok::Comma;
    case '!':
      return Tok::Bang;
    case '+':
      return Tok::Plus;
    case '-':
      return Tok::Minus;
    case '/':
      // A lone '/' is division; '//' became a comment mode above.
      return Tok::Slash;
    case '%':
      return Tok::Percent;
    case '&':
      return Tok::Amp;
    case '<':
      return Tok::Lt;
    default: // '='
      return I + 1 < Src.size() && Src[I + 1] == '=' ? Tok::EqEq
                                                     : Tok::Assign;
    }
  }

  void number(Token &T) {
    std::size_t Start = I;
    // Overflow-checked accumulation: literals beyond the Value range
    // are a diagnostic, not a silent wrap.
    constexpr std::uint64_t Max = INT64_MAX;
    std::uint64_t N = 0;
    bool TooBig = false;
    while (I < Src.size() && classOf(Src[I]) == CharClass::Digit) {
      auto D = static_cast<std::uint64_t>(Src[I++] - '0');
      if (N > (Max - D) / 10)
        TooBig = true;
      else
        N = N * 10 + D;
    }
    if (TooBig)
      return error(T, Start, "numeric literal too large");
    set(T, Tok::Number, Start, {}, N);
  }

  void word(Token &T) {
    std::size_t Start = I;
    // One table load per character, two compares (Word and Digit are
    // adjacent in the enum's usage here).
    while (I < Src.size()) {
      CharClass C = classOf(Src[I]);
      if (C != CharClass::Word && C != CharClass::Digit)
        break;
      ++I;
    }
    std::string_view W = Src.substr(Start, I - Start);
    // rN and bufN are their own token kinds; Text is the digit suffix.
    if (W.size() >= 2 && W[0] == 'r' && classOf(W[1]) == CharClass::Digit)
      return set(T, Tok::Reg, Start, W.substr(1));
    if (W.size() >= 4 && W.substr(0, 3) == "buf" &&
        classOf(W[3]) == CharClass::Digit)
      return set(T, Tok::Buf, Start, W.substr(3));
    set(T, Tok::Ident, Start, W);
  }

  std::string_view Src;
  std::size_t I = 0;
  std::uint32_t Line = 1;
  std::size_t LineStart = 0;
  std::vector<LexState> States;
  std::string ErrReason;
};

/// Recursive-descent parser with one token of lookahead, allocating
/// into the caller's arena.
///
/// The grammar functions return the node itself, nullptr on error, and
/// register/buffer indices come back with a NoIndex sentinel: no
/// std::optional or Token travels by value on the hot path. Such a
/// result is written to a stack slot field by field and read back
/// whole, a store-to-load forwarding stall on every return: about a
/// third of the parse time on E24's 51 MB spec (one Xeon core).
class Parser {
public:
  Parser(AstArena &A, std::string_view Source, CheckResult *Diags,
         ParseDiag *Err)
      : A(A), Lex(Source), Diags(Diags), Err(Err) {
    advance();
  }

  std::optional<StmtPtr> program() {
    std::size_t Mark = Scratch.size();
    while (!at(Tok::End)) {
      StmtPtr S = stmt();
      if (!S)
        return std::nullopt;
      Scratch.push_back(S);
    }
    if (Failed)
      return std::nullopt;
    StmtPtr Out = A.seq(Scratch.data() + Mark, Scratch.size() - Mark);
    Scratch.resize(Mark);
    return Out;
  }

private:
  /// Scans the next token into the lookahead slot. A lexical error is
  /// reported immediately (at the lexeme's own position) and the
  /// stream is capped with End so the grammar unwinds; fail()'s
  /// first-error latch keeps the lexer's diagnostic.
  void advance() {
    Lex.next(Cur);
    if (Cur.K == Tok::Error) {
      failAt(Cur.Line, Cur.Col, std::string(Cur.Text));
      Cur = Token{Tok::End, {}, 0, Cur.Line, Cur.Col};
    }
  }

  const Token &peek() const { return Cur; }
  bool at(Tok K) const { return Cur.K == K; }

  bool expect(Tok K, const char *What) {
    if (at(K)) {
      advance();
      return true;
    }
    fail(std::string("expected ") + What);
    return false;
  }

  /// Reports the first error only: later failures are unwinding noise
  /// from the capped token stream or from callers re-describing the
  /// same position.
  void failAt(std::uint32_t Line, std::uint32_t Col, std::string Why) {
    if (Failed)
      return;
    Failed = true;
    if (Diags)
      Diags->addFailure("parse error at line " + std::to_string(Line) +
                        ", col " + std::to_string(Col) + ": " + Why);
    if (Err)
      *Err = ParseDiag{Line, Col, std::move(Why)};
  }

  void fail(std::string Why) { failAt(Cur.Line, Cur.Col, std::move(Why)); }

  /// Checked digit-string parse of a register/buffer suffix. Indices are
  /// capped well below RegId's range: downstream (the interpreter, the
  /// abstract domains) allocates index+1 slots, so an absurd index like
  /// r4000000000 must be a diagnostic, not an allocation.
  static constexpr std::uint64_t MaxIndex = 4095;
  /// regOrBufIndex()'s and schedArgs()'s error result.
  static constexpr std::uint64_t NoIndex = ~std::uint64_t{0};

  std::uint64_t regOrBufIndex(Tok K, const char *What) {
    if (!at(K)) {
      fail(std::string("expected ") + What);
      return NoIndex;
    }
    std::string_view Digits = Cur.Text;
    std::uint64_t N = 0;
    bool TooBig = false;
    if (Digits.size() == 1) {
      // Single-digit indices (the overwhelmingly common case: r0..r9,
      // buf0..buf9) skip the overflow-checked loop.
      N = static_cast<std::uint64_t>(Digits[0] - '0');
    } else {
      for (char C : Digits) {
        auto D = static_cast<std::uint64_t>(C - '0');
        if (N > (MaxIndex - D) / 10) {
          TooBig = true;
          break;
        }
        N = N * 10 + D;
      }
    }
    if (TooBig || N > MaxIndex) {
      fail(std::string(What) + " index '" + std::string(Digits) +
           "' exceeds the maximum " + std::to_string(MaxIndex));
      return NoIndex;
    }
    advance();
    return N;
  }

  /// RAII recursion limiter: grammar nesting (blocks, '!' chains, parens)
  /// is user input, so it must not be able to overflow the stack.
  static constexpr unsigned MaxDepth = 256;

  struct DepthGuard {
    explicit DepthGuard(Parser &P) : P(P) { ++P.Depth; }
    ~DepthGuard() { --P.Depth; }
    bool ok() const { return P.Depth <= MaxDepth; }
    Parser &P;
  };

  /// primary := number | -number | rN | fuel() | '(' expr op expr ')'
  ///          | '!' primary
  ExprPtr expr() {
    DepthGuard G(*this);
    if (!G.ok()) {
      fail("expression nesting exceeds the maximum depth of " +
           std::to_string(MaxDepth));
      return nullptr;
    }
    // Dispatch on the token kind in one jump instead of an if-chain:
    // expression heads are data-dependent, so the chain's branches are
    // unpredictable in exactly the hot path.
    switch (peek().K) {
    case Tok::Number: {
      auto V = static_cast<Value>(Cur.Num);
      advance();
      return A.lit(V);
    }
    case Tok::Minus: {
      advance();
      if (!at(Tok::Number)) {
        fail("expected a number after '-'");
        return nullptr;
      }
      auto V = -static_cast<Value>(Cur.Num);
      advance();
      return A.lit(V);
    }
    case Tok::Reg: {
      std::uint64_t R = regOrBufIndex(Tok::Reg, "a register");
      if (R == NoIndex)
        return nullptr;
      return A.reg(static_cast<RegId>(R));
    }
    case Tok::Bang: {
      advance();
      ExprPtr Inner = expr();
      if (!Inner)
        return nullptr;
      return A.notE(Inner);
    }
    case Tok::Ident: {
      if (peek().Text != "fuel")
        break;
      advance();
      if (!expect(Tok::LParen, "'(' after fuel") ||
          !expect(Tok::RParen, "')' after fuel("))
        return nullptr;
      return A.fuel();
    }
    case Tok::LParen: {
      advance();
      ExprPtr L = expr();
      if (!L)
        return nullptr;
      Tok Op = peek().K;
      if (Op != Tok::Plus && Op != Tok::Minus && Op != Tok::Slash &&
          Op != Tok::Percent && Op != Tok::Lt && Op != Tok::EqEq) {
        fail("expected a binary operator");
        return nullptr;
      }
      advance();
      ExprPtr R = expr();
      if (!R || !expect(Tok::RParen, "')'"))
        return nullptr;
      switch (Op) {
      case Tok::Plus:
        return A.add(L, R);
      case Tok::Minus:
        return A.sub(L, R);
      case Tok::Slash:
        return A.divE(L, R);
      case Tok::Percent:
        return A.modE(L, R);
      case Tok::Lt:
        return A.less(L, R);
      default:
        return A.eq(L, R);
      }
    }
    default:
      break;
    }
    fail("expected an expression");
    return nullptr;
  }

  StmtPtr block() {
    if (!expect(Tok::LBrace, "'{'"))
      return nullptr;
    // Children accumulate on one scratch stack shared by all nesting
    // levels (mark/restore), so a deep program costs zero per-block
    // vector allocations.
    std::size_t Mark = Scratch.size();
    while (!at(Tok::RBrace) && !at(Tok::End)) {
      StmtPtr S = stmt();
      if (!S)
        return nullptr;
      Scratch.push_back(S);
    }
    if (!expect(Tok::RBrace, "'}'"))
      return nullptr;
    StmtPtr Out = A.seq(Scratch.data() + Mark, Scratch.size() - Mark);
    Scratch.resize(Mark);
    return Out;
  }

  /// "(&sched, bufN)" tail of the queue builtins: the buffer index, or
  /// NoIndex.
  std::uint64_t schedArgs() {
    if (!expect(Tok::LParen, "'('") || !expect(Tok::Amp, "'&sched'"))
      return NoIndex;
    if (!at(Tok::Ident) || peek().Text != "sched") {
      fail("expected 'sched'");
      return NoIndex;
    }
    advance();
    if (!expect(Tok::Comma, "','"))
      return NoIndex;
    std::uint64_t B = regOrBufIndex(Tok::Buf, "a buffer");
    if (B == NoIndex || !expect(Tok::RParen, "')'"))
      return NoIndex;
    return B;
  }

  /// Stamps the freshly built statement with the line of its first
  /// token. Structured statements carry the line of their keyword; the
  /// Seq wrappers of program()/block() stay at line 0 — they dissolve
  /// during CFG lowering anyway.
  StmtPtr stmt() {
    std::uint32_t Line = peek().Line;
    StmtPtr S = stmtInner();
    if (S)
      A.setLine(S, Line);
    return S;
  }

  StmtPtr stmtInner() {
    DepthGuard G(*this);
    if (!G.ok()) {
      fail("statement nesting exceeds the maximum depth of " +
           std::to_string(MaxDepth));
      return nullptr;
    }
    // One jump on the head token's kind; identifier keywords resolve
    // inside the Ident arm, assignments inside the Reg arm.
    switch (peek().K) {
    case Tok::Ident: {
      std::string_view W = peek().Text;
      // Control flow.
      if (W == "while") {
        advance();
        if (!expect(Tok::LParen, "'('"))
          return nullptr;
        ExprPtr Cond = expr();
        if (!Cond || !expect(Tok::RParen, "')'"))
          return nullptr;
        StmtPtr Body = block();
        if (!Body)
          return nullptr;
        return A.whileLoop(Cond, Body);
      }
      if (W == "if") {
        advance();
        if (!expect(Tok::LParen, "'('"))
          return nullptr;
        ExprPtr Cond = expr();
        if (!Cond || !expect(Tok::RParen, "')'"))
          return nullptr;
        StmtPtr Then = block();
        if (!Then)
          return nullptr;
        StmtPtr Else = nullptr;
        if (at(Tok::Ident) && peek().Text == "else") {
          advance();
          Else = block();
          if (!Else)
            return nullptr;
        }
        return A.ifThen(Cond, Then, Else);
      }

      // Marker functions and free().
      auto MarkerFor = [](std::string_view Name) -> std::optional<TraceFn> {
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
          return nullptr;
        // dispatch/execution/completion name the job's buffer; the
        // others take no argument (mirrors the printer exactly).
        bool WantsBuf = *Fn == TraceFn::TrDisp || *Fn == TraceFn::TrExec ||
                        *Fn == TraceFn::TrCompl;
        BufId Buf = 0;
        if (WantsBuf) {
          std::uint64_t B = regOrBufIndex(Tok::Buf, "a buffer");
          if (B == NoIndex)
            return nullptr;
          Buf = static_cast<BufId>(B);
        } else if (at(Tok::Buf)) {
          fail("'" + std::string(W) + "' takes no argument");
          return nullptr;
        }
        if (!expect(Tok::RParen, "')'") || !expect(Tok::Semi, "';'"))
          return nullptr;
        return A.traceE(*Fn, Buf);
      }
      if (W == "free") {
        advance();
        if (!expect(Tok::LParen, "'('"))
          return nullptr;
        std::uint64_t B = regOrBufIndex(Tok::Buf, "a buffer");
        if (B == NoIndex || !expect(Tok::RParen, "')'") ||
            !expect(Tok::Semi, "';'"))
          return nullptr;
        return A.freeBuf(static_cast<BufId>(B));
      }
      if (W == "npfp_enqueue") {
        advance();
        std::uint64_t B = schedArgs();
        if (B == NoIndex || !expect(Tok::Semi, "';'"))
          return nullptr;
        return A.enqueue(static_cast<BufId>(B));
      }
      break; // An unknown identifier falls through to the diagnostic.
    }

    // Assignments: rN = expr; | rN = read(rM, bufK); |
    //              rN = npfp_dequeue(&sched, bufK);
    case Tok::Reg: {
      std::uint64_t DstIdx = regOrBufIndex(Tok::Reg, "a register");
      if (DstIdx == NoIndex)
        return nullptr;
      auto Dst = static_cast<RegId>(DstIdx);
      if (!expect(Tok::Assign, "'='"))
        return nullptr;
      if (at(Tok::Ident) && peek().Text == "read") {
        advance();
        if (!expect(Tok::LParen, "'('"))
          return nullptr;
        std::uint64_t Sock = regOrBufIndex(Tok::Reg, "a register");
        if (Sock == NoIndex || !expect(Tok::Comma, "','"))
          return nullptr;
        std::uint64_t Buf = regOrBufIndex(Tok::Buf, "a buffer");
        if (Buf == NoIndex || !expect(Tok::RParen, "')'") ||
            !expect(Tok::Semi, "';'"))
          return nullptr;
        return A.readE(static_cast<RegId>(Sock), static_cast<BufId>(Buf),
                       Dst);
      }
      if (at(Tok::Ident) && peek().Text == "npfp_dequeue") {
        advance();
        std::uint64_t B = schedArgs();
        if (B == NoIndex || !expect(Tok::Semi, "';'"))
          return nullptr;
        return A.dequeue(static_cast<BufId>(B), Dst);
      }
      ExprPtr E = expr();
      if (!E || !expect(Tok::Semi, "';'"))
        return nullptr;
      return A.setReg(Dst, E);
    }

    default:
      break;
    }

    fail("expected a statement, got '" +
         (peek().Text.empty() ? std::to_string(peek().Num)
                              : std::string(peek().Text)) +
         "'");
    return nullptr;
  }

  AstArena &A;
  Lexer Lex;
  Token Cur;
  CheckResult *Diags;
  ParseDiag *Err;
  bool Failed = false;
  std::size_t Depth = 0;
  std::vector<StmtPtr> Scratch;
};

} // namespace

std::optional<StmtPtr> rprosa::caesium::parseProgram(AstArena &A,
                                                     std::string_view Source,
                                                     CheckResult *Diags,
                                                     ParseDiag *Err) {
  Parser P(A, Source, Diags, Err);
  return P.program();
}

std::string rprosa::caesium::renderParseError(std::string_view FileName,
                                              std::string_view Source,
                                              const ParseDiag &D) {
  std::string Out;
  Out += FileName;
  Out += ':';
  Out += std::to_string(D.Line);
  Out += ':';
  Out += std::to_string(D.Col);
  Out += ": parse error: ";
  Out += D.Reason;
  Out += '\n';
  if (D.Line == 0)
    return Out;
  // Walk to the 1-based line D.Line.
  std::size_t Start = 0;
  for (std::uint32_t L = 1; L < D.Line; ++L) {
    std::size_t Nl = Source.find('\n', Start);
    if (Nl == std::string_view::npos)
      return Out; // Position past the end (e.g. an unterminated block).
    Start = Nl + 1;
  }
  std::size_t LineEnd = Source.find('\n', Start);
  std::string_view Text = Source.substr(
      Start, LineEnd == std::string_view::npos ? std::string_view::npos
                                               : LineEnd - Start);
  Out += "  ";
  Out += Text;
  Out += '\n';
  Out += "  ";
  // Tabs keep their width so the caret lands under the right column.
  for (std::uint32_t C = 1; C < D.Col && C <= Text.size(); ++C)
    Out += Text[C - 1] == '\t' ? '\t' : ' ';
  Out += "^\n";
  return Out;
}
