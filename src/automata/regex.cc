#include "automata/regex.h"

#include <algorithm>
#include <cctype>
#include <utility>
#include <vector>

namespace rav {

Regex Regex::EmptySet() {
  auto n = std::make_shared<Node>();
  n->op = Op::kEmpty;
  return Regex(std::move(n));
}

Regex Regex::Epsilon() {
  auto n = std::make_shared<Node>();
  n->op = Op::kEpsilon;
  return Regex(std::move(n));
}

Regex Regex::Symbol(int symbol) {
  RAV_CHECK_GE(symbol, 0);
  auto n = std::make_shared<Node>();
  n->op = Op::kSymbol;
  n->symbol = symbol;
  return Regex(std::move(n));
}

Regex Regex::AnySymbol() {
  auto n = std::make_shared<Node>();
  n->op = Op::kAny;
  return Regex(std::move(n));
}

Regex Regex::Concat(Regex a, Regex b) {
  auto n = std::make_shared<Node>();
  n->op = Op::kConcat;
  n->left = std::move(a.node_);
  n->right = std::move(b.node_);
  return Regex(std::move(n));
}

Regex Regex::Union(Regex a, Regex b) {
  auto n = std::make_shared<Node>();
  n->op = Op::kUnion;
  n->left = std::move(a.node_);
  n->right = std::move(b.node_);
  return Regex(std::move(n));
}

Regex Regex::Star(Regex a) {
  auto n = std::make_shared<Node>();
  n->op = Op::kStar;
  n->left = std::move(a.node_);
  return Regex(std::move(n));
}

Regex Regex::Plus(Regex a) {
  auto n = std::make_shared<Node>();
  n->op = Op::kPlus;
  n->left = std::move(a.node_);
  return Regex(std::move(n));
}

Regex Regex::Optional(Regex a) { return Union(std::move(a), Epsilon()); }

// ---------------------------------------------------------------------------
// Parser: recursive descent over tokens.

namespace {

struct Token {
  enum class Kind { kIdent, kLParen, kRParen, kBar, kStar, kPlus, kQuestion,
                    kDot, kEnd };
  Kind kind;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    size_t i = 0;
    while (i < text_.size()) {
      char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      switch (c) {
        case '(':
          tokens.push_back({Token::Kind::kLParen, "("});
          ++i;
          continue;
        case ')':
          tokens.push_back({Token::Kind::kRParen, ")"});
          ++i;
          continue;
        case '|':
          tokens.push_back({Token::Kind::kBar, "|"});
          ++i;
          continue;
        case '*':
          tokens.push_back({Token::Kind::kStar, "*"});
          ++i;
          continue;
        case '+':
          tokens.push_back({Token::Kind::kPlus, "+"});
          ++i;
          continue;
        case '?':
          tokens.push_back({Token::Kind::kQuestion, "?"});
          ++i;
          continue;
        case '.':
          tokens.push_back({Token::Kind::kDot, "."});
          ++i;
          continue;
        default:
          break;
      }
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = i;
        while (i < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[i])) ||
                text_[i] == '_')) {
          ++i;
        }
        tokens.push_back({Token::Kind::kIdent, text_.substr(start, i - start)});
        continue;
      }
      return Status::InvalidArgument(std::string("regex: unexpected char '") +
                                     c + "'");
    }
    tokens.push_back({Token::Kind::kEnd, ""});
    return tokens;
  }

 private:
  const std::string& text_;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens,
         const std::function<int(const std::string&)>& resolve)
      : tokens_(std::move(tokens)), resolve_(resolve) {}

  Result<Regex> Parse() {
    RAV_ASSIGN_OR_RETURN(Regex r, ParseUnion());
    if (Peek().kind != Token::Kind::kEnd) {
      return Status::InvalidArgument("regex: trailing input");
    }
    return r;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() { ++pos_; }

  Result<Regex> ParseUnion() {
    RAV_ASSIGN_OR_RETURN(Regex left, ParseConcat());
    while (Peek().kind == Token::Kind::kBar) {
      Advance();
      RAV_ASSIGN_OR_RETURN(Regex right, ParseConcat());
      left = Regex::Union(std::move(left), std::move(right));
    }
    return left;
  }

  bool StartsFactor() const {
    switch (Peek().kind) {
      case Token::Kind::kIdent:
      case Token::Kind::kLParen:
      case Token::Kind::kDot:
        return true;
      default:
        return false;
    }
  }

  Result<Regex> ParseConcat() {
    if (!StartsFactor()) {
      // Empty concatenation denotes ε (e.g. "a|" or "()" are rejected by
      // the factor parser, but an empty alternative is allowed).
      return Regex::Epsilon();
    }
    RAV_ASSIGN_OR_RETURN(Regex left, ParseFactor());
    while (StartsFactor()) {
      RAV_ASSIGN_OR_RETURN(Regex right, ParseFactor());
      left = Regex::Concat(std::move(left), std::move(right));
    }
    return left;
  }

  Result<Regex> ParseFactor() {
    RAV_ASSIGN_OR_RETURN(Regex base, ParseBase());
    while (true) {
      switch (Peek().kind) {
        case Token::Kind::kStar:
          Advance();
          base = Regex::Star(std::move(base));
          continue;
        case Token::Kind::kPlus:
          Advance();
          base = Regex::Plus(std::move(base));
          continue;
        case Token::Kind::kQuestion:
          Advance();
          base = Regex::Optional(std::move(base));
          continue;
        default:
          return base;
      }
    }
  }

  Result<Regex> ParseBase() {
    switch (Peek().kind) {
      case Token::Kind::kLParen: {
        Advance();
        RAV_ASSIGN_OR_RETURN(Regex inner, ParseUnion());
        if (Peek().kind != Token::Kind::kRParen) {
          return Status::InvalidArgument("regex: expected ')'");
        }
        Advance();
        return inner;
      }
      case Token::Kind::kDot:
        Advance();
        return Regex::AnySymbol();
      case Token::Kind::kIdent: {
        std::string name = Peek().text;
        Advance();
        if (name == "_eps") return Regex::Epsilon();
        int symbol = resolve_(name);
        if (symbol < 0) {
          return Status::InvalidArgument("regex: unknown symbol '" + name +
                                         "'");
        }
        return Regex::Symbol(symbol);
      }
      default:
        return Status::InvalidArgument("regex: expected a symbol, '(' or '.'");
    }
  }

  std::vector<Token> tokens_;
  const std::function<int(const std::string&)>& resolve_;
  size_t pos_ = 0;
};

}  // namespace

Result<Regex> Regex::Parse(
    const std::string& text,
    const std::function<int(const std::string&)>& resolve) {
  Lexer lexer(text);
  RAV_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens), resolve);
  return parser.Parse();
}

// ---------------------------------------------------------------------------
// Compilation

std::pair<int, int> Regex::Build(const Node& node,
                                 const SymbolLetters& symbol_letters,
                                 Nfa& nfa) const {
  int start = nfa.AddState();
  int accept = nfa.AddState();
  switch (node.op) {
    case Op::kEmpty:
      break;  // no path from start to accept
    case Op::kEpsilon:
      nfa.AddTransition(start, Nfa::kEpsilon, accept);
      break;
    case Op::kSymbol: {
      auto it = std::lower_bound(symbol_letters.begin(), symbol_letters.end(),
                                 std::make_pair(node.symbol, -1));
      RAV_CHECK(it != symbol_letters.end() && it->first == node.symbol);
      nfa.AddTransition(start, it->second, accept);
      break;
    }
    case Op::kAny:
      for (int s = 0; s < nfa.alphabet_size(); ++s) {
        nfa.AddTransition(start, s, accept);
      }
      break;
    case Op::kConcat: {
      auto [ls, la] = Build(*node.left, symbol_letters, nfa);
      auto [rs, ra] = Build(*node.right, symbol_letters, nfa);
      nfa.AddTransition(start, Nfa::kEpsilon, ls);
      nfa.AddTransition(la, Nfa::kEpsilon, rs);
      nfa.AddTransition(ra, Nfa::kEpsilon, accept);
      break;
    }
    case Op::kUnion: {
      auto [ls, la] = Build(*node.left, symbol_letters, nfa);
      auto [rs, ra] = Build(*node.right, symbol_letters, nfa);
      nfa.AddTransition(start, Nfa::kEpsilon, ls);
      nfa.AddTransition(start, Nfa::kEpsilon, rs);
      nfa.AddTransition(la, Nfa::kEpsilon, accept);
      nfa.AddTransition(ra, Nfa::kEpsilon, accept);
      break;
    }
    case Op::kStar: {
      auto [ls, la] = Build(*node.left, symbol_letters, nfa);
      nfa.AddTransition(start, Nfa::kEpsilon, accept);
      nfa.AddTransition(start, Nfa::kEpsilon, ls);
      nfa.AddTransition(la, Nfa::kEpsilon, ls);
      nfa.AddTransition(la, Nfa::kEpsilon, accept);
      break;
    }
    case Op::kPlus: {
      // One copy of the operand, entered once and looped back into.
      auto [ls, la] = Build(*node.left, symbol_letters, nfa);
      nfa.AddTransition(start, Nfa::kEpsilon, ls);
      nfa.AddTransition(la, Nfa::kEpsilon, ls);
      nfa.AddTransition(la, Nfa::kEpsilon, accept);
      break;
    }
  }
  return {start, accept};
}

Nfa Regex::BuildNfa(int num_letters,
                    const SymbolLetters& symbol_letters) const {
  Nfa nfa(num_letters);
  auto [start, accept] = Build(*node_, symbol_letters, nfa);
  nfa.SetInitial(start);
  nfa.SetAccepting(accept);
  return nfa;
}

Nfa Regex::ToNfa(int alphabet_size) const {
  SymbolLetters identity(alphabet_size);
  for (int s = 0; s < alphabet_size; ++s) identity[s] = {s, s};
  return BuildNfa(alphabet_size, identity);
}

Dfa Regex::ToDfa(int alphabet_size) const {
  // The symbols the expression names, ascending.
  std::vector<int> named;
  std::vector<const Node*> stack = {node_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->op == Op::kSymbol) named.push_back(n->symbol);
    if (n->left != nullptr) stack.push_back(n->left.get());
    if (n->right != nullptr) stack.push_back(n->right.get());
  }
  std::sort(named.begin(), named.end());
  named.erase(std::unique(named.begin(), named.end()), named.end());
  RAV_CHECK(named.empty() || named.back() < alphabet_size);

  // Symbol classes: each named symbol alone, every unnamed symbol in one
  // shared class (only `.` matches them, so every NFA state set steps
  // alike on all of them). Letters are numbered in order of their least
  // member; a DFA over letters then discovers its subsets, reachable
  // states and Moore blocks in the same order as one over the symbols,
  // whose first occurrence of each letter is at that member. The least
  // unnamed symbol is the first index the ascending `named` skips; the
  // unnamed class's letter is that same index.
  int first_unnamed = 0;
  while (first_unnamed < static_cast<int>(named.size()) &&
         named[first_unnamed] == first_unnamed) {
    ++first_unnamed;
  }
  SymbolLetters symbol_letters(named.size());
  for (int i = 0; i < static_cast<int>(named.size()); ++i) {
    symbol_letters[i] = {named[i], i < first_unnamed ? i : i + 1};
  }
  const bool has_unnamed = first_unnamed < alphabet_size;
  const int num_letters = static_cast<int>(named.size()) + has_unnamed;
  Dfa dfa = BuildNfa(num_letters, symbol_letters).Determinize().Minimize();
  // Every symbol named: the letters are the symbols themselves.
  if (!has_unnamed) return dfa;
  return dfa.ExpandLetters(alphabet_size, symbol_letters, first_unnamed);
}

std::string Regex::ToString(const std::function<std::string(int)>& name) const {
  // Appends into one buffer: chains of std::string operator+ here trip
  // GCC 12's -Werror=restrict at -O3.
  struct Printer {
    const std::function<std::string(int)>& name;
    std::string out;
    void Print(const Node& n) {
      switch (n.op) {
        case Op::kEmpty:
          out += "∅";
          return;
        case Op::kEpsilon:
          out += "_eps";
          return;
        case Op::kSymbol:
          out += name(n.symbol);
          return;
        case Op::kAny:
          out += '.';
          return;
        case Op::kConcat:
          Print(*n.left);
          out += ' ';
          Print(*n.right);
          return;
        case Op::kUnion:
          out += '(';
          Print(*n.left);
          out += " | ";
          Print(*n.right);
          out += ')';
          return;
        case Op::kStar:
          out += '(';
          Print(*n.left);
          out += ")*";
          return;
        case Op::kPlus:
          // Rendered as its expansion a (a)*, as before the node existed.
          Print(*n.left);
          out += " (";
          Print(*n.left);
          out += ")*";
          return;
      }
      out += '?';
    }
  };
  Printer p{name, {}};
  p.Print(*node_);
  return std::move(p.out);
}

}  // namespace rav
