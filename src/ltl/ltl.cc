#include "ltl/ltl.h"

#include <algorithm>
#include <cctype>

#include "base/logging.h"

namespace rav {

LtlFormula LtlFormula::True() {
  auto n = std::make_shared<Node>();
  n->op = Op::kTrue;
  return LtlFormula(std::move(n));
}

LtlFormula LtlFormula::False() {
  auto n = std::make_shared<Node>();
  n->op = Op::kFalse;
  return LtlFormula(std::move(n));
}

LtlFormula LtlFormula::Ap(int index) {
  RAV_CHECK_GE(index, 0);
  auto n = std::make_shared<Node>();
  n->op = Op::kAp;
  n->ap_index = index;
  return LtlFormula(std::move(n));
}

namespace {

std::shared_ptr<const LtlFormula> Box(LtlFormula f) {
  return std::make_shared<const LtlFormula>(std::move(f));
}

}  // namespace

LtlFormula LtlFormula::Not(LtlFormula f) {
  auto n = std::make_shared<Node>();
  n->op = Op::kNot;
  n->left = Box(std::move(f));
  return LtlFormula(std::move(n));
}

LtlFormula LtlFormula::And(LtlFormula a, LtlFormula b) {
  auto n = std::make_shared<Node>();
  n->op = Op::kAnd;
  n->left = Box(std::move(a));
  n->right = Box(std::move(b));
  return LtlFormula(std::move(n));
}

LtlFormula LtlFormula::Or(LtlFormula a, LtlFormula b) {
  auto n = std::make_shared<Node>();
  n->op = Op::kOr;
  n->left = Box(std::move(a));
  n->right = Box(std::move(b));
  return LtlFormula(std::move(n));
}

LtlFormula LtlFormula::Implies(LtlFormula a, LtlFormula b) {
  auto n = std::make_shared<Node>();
  n->op = Op::kImplies;
  n->left = Box(std::move(a));
  n->right = Box(std::move(b));
  return LtlFormula(std::move(n));
}

LtlFormula LtlFormula::Next(LtlFormula f) {
  auto n = std::make_shared<Node>();
  n->op = Op::kNext;
  n->left = Box(std::move(f));
  return LtlFormula(std::move(n));
}

LtlFormula LtlFormula::Until(LtlFormula a, LtlFormula b) {
  auto n = std::make_shared<Node>();
  n->op = Op::kUntil;
  n->left = Box(std::move(a));
  n->right = Box(std::move(b));
  return LtlFormula(std::move(n));
}

LtlFormula LtlFormula::Release(LtlFormula a, LtlFormula b) {
  auto n = std::make_shared<Node>();
  n->op = Op::kRelease;
  n->left = Box(std::move(a));
  n->right = Box(std::move(b));
  return LtlFormula(std::move(n));
}

LtlFormula LtlFormula::Eventually(LtlFormula f) {
  auto n = std::make_shared<Node>();
  n->op = Op::kEventually;
  n->left = Box(std::move(f));
  return LtlFormula(std::move(n));
}

LtlFormula LtlFormula::Globally(LtlFormula f) {
  auto n = std::make_shared<Node>();
  n->op = Op::kGlobally;
  n->left = Box(std::move(f));
  return LtlFormula(std::move(n));
}

int LtlFormula::MaxApIndex() const {
  int max_index = node_->op == Op::kAp ? node_->ap_index : -1;
  if (node_->left) max_index = std::max(max_index, node_->left->MaxApIndex());
  if (node_->right) {
    max_index = std::max(max_index, node_->right->MaxApIndex());
  }
  return max_index;
}

// ---------------------------------------------------------------------------
// Lasso evaluation (independent oracle for the tableau translation).

bool LtlFormula::EvalOnLasso(const std::function<uint64_t(size_t)>& ap_mask_at,
                             size_t prefix_len, size_t cycle_len) const {
  RAV_CHECK_GE(cycle_len, 1u);
  const size_t n = prefix_len + cycle_len;
  auto succ = [&](size_t i) { return i + 1 < n ? i + 1 : prefix_len; };

  // Truth table of this formula at each canonical position, computed
  // bottom-up by structural recursion.
  std::function<std::vector<bool>(const LtlFormula&)> table =
      [&](const LtlFormula& f) -> std::vector<bool> {
    std::vector<bool> out(n, false);
    switch (f.op()) {
      case Op::kTrue:
        out.assign(n, true);
        break;
      case Op::kFalse:
        break;
      case Op::kAp:
        for (size_t i = 0; i < n; ++i) {
          out[i] = (ap_mask_at(i) >> f.ap_index()) & 1;
        }
        break;
      case Op::kNot: {
        auto a = table(f.left());
        for (size_t i = 0; i < n; ++i) out[i] = !a[i];
        break;
      }
      case Op::kAnd: {
        auto a = table(f.left());
        auto b = table(f.right());
        for (size_t i = 0; i < n; ++i) out[i] = a[i] && b[i];
        break;
      }
      case Op::kOr: {
        auto a = table(f.left());
        auto b = table(f.right());
        for (size_t i = 0; i < n; ++i) out[i] = a[i] || b[i];
        break;
      }
      case Op::kImplies: {
        auto a = table(f.left());
        auto b = table(f.right());
        for (size_t i = 0; i < n; ++i) out[i] = !a[i] || b[i];
        break;
      }
      case Op::kNext: {
        auto a = table(f.left());
        for (size_t i = 0; i < n; ++i) out[i] = a[succ(i)];
        break;
      }
      case Op::kUntil: {
        auto a = table(f.left());
        auto b = table(f.right());
        // Least fixpoint: iterate backwards-from-false until stable;
        // 2n passes suffice for an ultimately periodic word.
        for (size_t pass = 0; pass < 2; ++pass) {
          for (size_t step = 0; step < n; ++step) {
            size_t i = n - 1 - step;
            out[i] = b[i] || (a[i] && out[succ(i)]);
          }
        }
        break;
      }
      case Op::kRelease: {
        auto a = table(f.left());
        auto b = table(f.right());
        // Greatest fixpoint: start from true.
        out.assign(n, true);
        for (size_t pass = 0; pass < 2; ++pass) {
          for (size_t step = 0; step < n; ++step) {
            size_t i = n - 1 - step;
            out[i] = b[i] && (a[i] || out[succ(i)]);
          }
        }
        break;
      }
      case Op::kEventually: {
        auto a = table(f.left());
        for (size_t pass = 0; pass < 2; ++pass) {
          for (size_t step = 0; step < n; ++step) {
            size_t i = n - 1 - step;
            out[i] = a[i] || out[succ(i)];
          }
        }
        break;
      }
      case Op::kGlobally: {
        auto a = table(f.left());
        out.assign(n, true);
        for (size_t pass = 0; pass < 2; ++pass) {
          for (size_t step = 0; step < n; ++step) {
            size_t i = n - 1 - step;
            out[i] = a[i] && out[succ(i)];
          }
        }
        break;
      }
    }
    return out;
  };
  return table(*this)[0];
}

// ---------------------------------------------------------------------------
// Parser

namespace {

struct LtlToken {
  enum class Kind {
    kIdent, kTrue, kFalse, kNot, kAnd, kOr, kImplies,
    kNext, kUntil, kRelease, kEventually, kGlobally,
    kLParen, kRParen, kEnd,
  };
  Kind kind;
  std::string text;
};

Result<std::vector<LtlToken>> TokenizeLtl(const std::string& text) {
  std::vector<LtlToken> tokens;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '(') {
      tokens.push_back({LtlToken::Kind::kLParen, "("});
      ++i;
      continue;
    }
    if (c == ')') {
      tokens.push_back({LtlToken::Kind::kRParen, ")"});
      ++i;
      continue;
    }
    if (c == '!') {
      tokens.push_back({LtlToken::Kind::kNot, "!"});
      ++i;
      continue;
    }
    if (c == '&') {
      tokens.push_back({LtlToken::Kind::kAnd, "&"});
      ++i;
      continue;
    }
    if (c == '|') {
      tokens.push_back({LtlToken::Kind::kOr, "|"});
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < text.size() && text[i + 1] == '>') {
      tokens.push_back({LtlToken::Kind::kImplies, "->"});
      i += 2;
      continue;
    }
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[i])) ||
              text[i] == '_')) {
        ++i;
      }
      std::string word = text.substr(start, i - start);
      LtlToken::Kind kind = LtlToken::Kind::kIdent;
      if (word == "true") kind = LtlToken::Kind::kTrue;
      else if (word == "false") kind = LtlToken::Kind::kFalse;
      else if (word == "G") kind = LtlToken::Kind::kGlobally;
      else if (word == "F") kind = LtlToken::Kind::kEventually;
      else if (word == "X") kind = LtlToken::Kind::kNext;
      else if (word == "U") kind = LtlToken::Kind::kUntil;
      else if (word == "R") kind = LtlToken::Kind::kRelease;
      tokens.push_back({kind, std::move(word)});
      continue;
    }
    return Status::InvalidArgument(std::string("LTL: unexpected char '") + c +
                                   "'");
  }
  tokens.push_back({LtlToken::Kind::kEnd, ""});
  return tokens;
}

class LtlParser {
 public:
  LtlParser(std::vector<LtlToken> tokens,
            const std::function<int(const std::string&)>& resolve)
      : tokens_(std::move(tokens)), resolve_(resolve) {}

  Result<LtlFormula> Parse() {
    RAV_ASSIGN_OR_RETURN(LtlFormula f, ParseImplies());
    if (Peek().kind != LtlToken::Kind::kEnd) {
      return Status::InvalidArgument("LTL: trailing input at '" + Peek().text +
                                     "'");
    }
    return f;
  }

 private:
  const LtlToken& Peek() const { return tokens_[pos_]; }
  void Advance() { ++pos_; }

  Result<LtlFormula> ParseImplies() {
    RAV_ASSIGN_OR_RETURN(LtlFormula left, ParseOr());
    if (Peek().kind == LtlToken::Kind::kImplies) {
      Advance();
      RAV_ASSIGN_OR_RETURN(LtlFormula right, ParseImplies());  // right assoc
      return LtlFormula::Implies(std::move(left), std::move(right));
    }
    return left;
  }

  Result<LtlFormula> ParseOr() {
    RAV_ASSIGN_OR_RETURN(LtlFormula left, ParseAnd());
    while (Peek().kind == LtlToken::Kind::kOr) {
      Advance();
      RAV_ASSIGN_OR_RETURN(LtlFormula right, ParseAnd());
      left = LtlFormula::Or(std::move(left), std::move(right));
    }
    return left;
  }

  Result<LtlFormula> ParseAnd() {
    RAV_ASSIGN_OR_RETURN(LtlFormula left, ParseUntil());
    while (Peek().kind == LtlToken::Kind::kAnd) {
      Advance();
      RAV_ASSIGN_OR_RETURN(LtlFormula right, ParseUntil());
      left = LtlFormula::And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<LtlFormula> ParseUntil() {
    RAV_ASSIGN_OR_RETURN(LtlFormula left, ParseUnary());
    if (Peek().kind == LtlToken::Kind::kUntil) {
      Advance();
      RAV_ASSIGN_OR_RETURN(LtlFormula right, ParseUntil());  // right assoc
      return LtlFormula::Until(std::move(left), std::move(right));
    }
    if (Peek().kind == LtlToken::Kind::kRelease) {
      Advance();
      RAV_ASSIGN_OR_RETURN(LtlFormula right, ParseUntil());
      return LtlFormula::Release(std::move(left), std::move(right));
    }
    return left;
  }

  Result<LtlFormula> ParseUnary() {
    switch (Peek().kind) {
      case LtlToken::Kind::kNot: {
        Advance();
        RAV_ASSIGN_OR_RETURN(LtlFormula f, ParseUnary());
        return LtlFormula::Not(std::move(f));
      }
      case LtlToken::Kind::kNext: {
        Advance();
        RAV_ASSIGN_OR_RETURN(LtlFormula f, ParseUnary());
        return LtlFormula::Next(std::move(f));
      }
      case LtlToken::Kind::kEventually: {
        Advance();
        RAV_ASSIGN_OR_RETURN(LtlFormula f, ParseUnary());
        return LtlFormula::Eventually(std::move(f));
      }
      case LtlToken::Kind::kGlobally: {
        Advance();
        RAV_ASSIGN_OR_RETURN(LtlFormula f, ParseUnary());
        return LtlFormula::Globally(std::move(f));
      }
      case LtlToken::Kind::kTrue:
        Advance();
        return LtlFormula::True();
      case LtlToken::Kind::kFalse:
        Advance();
        return LtlFormula::False();
      case LtlToken::Kind::kLParen: {
        Advance();
        RAV_ASSIGN_OR_RETURN(LtlFormula f, ParseImplies());
        if (Peek().kind != LtlToken::Kind::kRParen) {
          return Status::InvalidArgument("LTL: expected ')'");
        }
        Advance();
        return f;
      }
      case LtlToken::Kind::kIdent: {
        std::string name = Peek().text;
        Advance();
        int index = resolve_(name);
        if (index < 0) {
          return Status::InvalidArgument("LTL: unknown proposition '" + name +
                                         "'");
        }
        return LtlFormula::Ap(index);
      }
      default:
        return Status::InvalidArgument("LTL: unexpected token '" +
                                       Peek().text + "'");
    }
  }

  std::vector<LtlToken> tokens_;
  const std::function<int(const std::string&)>& resolve_;
  size_t pos_ = 0;
};

}  // namespace

Result<LtlFormula> LtlFormula::Parse(
    const std::string& text,
    const std::function<int(const std::string&)>& resolve) {
  RAV_ASSIGN_OR_RETURN(std::vector<LtlToken> tokens, TokenizeLtl(text));
  LtlParser parser(std::move(tokens), resolve);
  return parser.Parse();
}

namespace {

// Appends into one buffer: chains of std::string operator+ here trip
// GCC 12's -Werror=restrict at -O3.
void AppendFormula(const LtlFormula& f,
                   const std::function<std::string(int)>& ap_name,
                   std::string& out) {
  using Op = LtlFormula::Op;
  auto unary = [&](const char* open) {
    out += open;
    AppendFormula(f.left(), ap_name, out);
    out += ')';
  };
  auto binary = [&](const char* op) {
    out += '(';
    AppendFormula(f.left(), ap_name, out);
    out += op;
    AppendFormula(f.right(), ap_name, out);
    out += ')';
  };
  switch (f.op()) {
    case Op::kTrue:
      out += "true";
      return;
    case Op::kFalse:
      out += "false";
      return;
    case Op::kAp:
      out += ap_name(f.ap_index());
      return;
    case Op::kNot:
      return unary("!(");
    case Op::kAnd:
      return binary(" & ");
    case Op::kOr:
      return binary(" | ");
    case Op::kImplies:
      return binary(" -> ");
    case Op::kNext:
      return unary("X(");
    case Op::kUntil:
      return binary(" U ");
    case Op::kRelease:
      return binary(" R ");
    case Op::kEventually:
      return unary("F(");
    case Op::kGlobally:
      return unary("G(");
  }
  out += '?';
}

}  // namespace

std::string LtlFormula::ToString(
    const std::function<std::string(int)>& ap_name) const {
  std::string out;
  AppendFormula(*this, ap_name, out);
  return out;
}

}  // namespace rav
