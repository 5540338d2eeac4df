#include "src/proto/parser.hpp"

#include <cctype>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/util/strings.hpp"

namespace mph::proto {

namespace {

struct Token {
  enum class Kind { word, number, punct, end };
  Kind kind = Kind::end;
  std::string text;       // word / punct spelling
  int value = 0;          // number
  SourceLoc loc;
};

/// Hand-rolled lexer: words, non-negative integers, and the punctuation the
/// grammar needs ("{ } [ ] * ..").  '#' starts a comment to end of line.
/// Every integer in the grammar (ranks, counts, tags, sizes) is an int, so
/// a literal beyond INT_MAX is rejected here, at its position.
class Lexer {
 public:
  Lexer(std::string_view text, const std::string& origin)
      : text_(text), origin_(origin) {
    advance();
  }

  [[nodiscard]] const Token& peek() const noexcept { return current_; }

  Token next() {
    Token out = current_;
    advance();
    return out;
  }

  [[noreturn]] void fail(SourceLoc loc, const std::string& what) const {
    throw ContractParseError(origin_, loc, what);
  }

 private:
  [[nodiscard]] SourceLoc here() const noexcept { return {line_, column_}; }

  void bump() {
    if (text_[pos_] == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++pos_;
  }

  void skip_blank() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') bump();
      } else if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        bump();
      } else {
        break;
      }
    }
  }

  void advance() {
    skip_blank();
    current_ = Token{};
    current_.loc = here();
    if (pos_ >= text_.size()) {
      current_.kind = Token::Kind::end;
      current_.text = "<end of input>";
      return;
    }
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      current_.kind = Token::Kind::word;
      while (pos_ < text_.size()) {
        const char w = text_[pos_];
        if (std::isalnum(static_cast<unsigned char>(w)) == 0 && w != '_' &&
            w != '-') {
          break;
        }
        current_.text += w;
        bump();
      }
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      current_.kind = Token::Kind::number;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        current_.text += text_[pos_];
        bump();
      }
      const std::optional<long long> value = util::parse_int(current_.text);
      if (!value || *value > std::numeric_limits<int>::max()) {
        fail(current_.loc, "integer '" + current_.text +
                               "' out of range (at most " +
                               std::to_string(std::numeric_limits<int>::max()) +
                               ")");
      }
      current_.value = static_cast<int>(*value);
      return;
    }
    if (c == '.' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '.') {
      current_.kind = Token::Kind::punct;
      current_.text = "..";
      bump();
      bump();
      return;
    }
    if (c == '{' || c == '}' || c == '[' || c == ']' || c == '*') {
      current_.kind = Token::Kind::punct;
      current_.text = c;
      bump();
      return;
    }
    fail(here(), std::string("unexpected character '") + c + "'");
  }

  std::string_view text_;
  std::string origin_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  Token current_;
};

class Parser {
 public:
  Parser(std::string_view text, std::string origin)
      : origin_(std::move(origin)), lex_(text, origin_) {}

  Contract parse() {
    Contract out;
    out.origin = origin_;
    expect_keyword("contract");
    out.name = expect_word("a contract name");
    while (lex_.peek().kind != Token::Kind::end) {
      const Token head = lex_.peek();
      if (head.kind != Token::Kind::word) {
        lex_.fail(head.loc, "expected 'component' or 'proto', got '" +
                                head.text + "'");
      }
      if (head.text == "component") {
        parse_component(out);
      } else if (head.text == "proto") {
        parse_proto(out);
      } else {
        lex_.fail(head.loc, "expected 'component' or 'proto', got '" +
                                head.text + "'");
      }
    }
    validate(out);
    return out;
  }

 private:
  void parse_component(Contract& out) {
    ComponentDecl decl;
    decl.loc = lex_.next().loc;  // 'component'
    decl.name = expect_word("a component name");
    expect_keyword("ranks");
    decl.ranks = expect_count("a rank count");
    for (const ComponentDecl& existing : out.components) {
      if (existing.name == decl.name) {
        lex_.fail(decl.loc, "duplicate component '" + decl.name +
                                "' (first declared at line " +
                                std::to_string(existing.loc.line) + ")");
      }
    }
    out.components.push_back(std::move(decl));
  }

  void parse_proto(Contract& out) {
    ProtoDecl decl;
    decl.loc = lex_.next().loc;  // 'proto'
    decl.component = expect_word("a component name");
    for (const ProtoDecl& existing : out.protos) {
      if (existing.component == decl.component) {
        lex_.fail(decl.loc, "duplicate proto for component '" +
                                decl.component + "' (first at line " +
                                std::to_string(existing.loc.line) + ")");
      }
    }
    decl.body = parse_block();
    out.protos.push_back(std::move(decl));
  }

  Seq parse_block() {
    expect_punct("{");
    Seq seq;
    while (true) {
      const Token& head = lex_.peek();
      if (head.kind == Token::Kind::punct && head.text == "}") {
        lex_.next();
        return seq;
      }
      if (head.kind == Token::Kind::end) {
        lex_.fail(head.loc, "unterminated block: expected '}'");
      }
      seq.items.push_back(parse_item());
    }
  }

  Item parse_item() {
    const Token head = lex_.peek();
    if (head.kind != Token::Kind::word) {
      lex_.fail(head.loc, "expected an operation, got '" + head.text + "'");
    }
    if (head.text == "loop") return parse_loop();
    if (head.text == "either") return parse_choice();
    if (head.text == "gather") return parse_gather();
    if (head.text == "on") return parse_on();
    Item item;
    item.kind = Item::Kind::op;
    item.op = parse_op();
    item.loc = item.op.loc;
    return item;
  }

  Item parse_loop() {
    Item item;
    item.kind = Item::Kind::loop;
    item.loc = lex_.next().loc;  // 'loop'
    item.count = expect_count("a loop count");
    item.branches.push_back(parse_block());
    return item;
  }

  Item parse_choice() {
    Item item;
    item.kind = Item::Kind::choice;
    item.loc = lex_.next().loc;  // 'either'
    item.branches.push_back(parse_block());
    bool saw_or = false;
    while (lex_.peek().kind == Token::Kind::word && lex_.peek().text == "or") {
      lex_.next();
      item.branches.push_back(parse_block());
      saw_or = true;
    }
    if (!saw_or) {
      lex_.fail(item.loc, "'either' needs at least one 'or { ... }' branch");
    }
    return item;
  }

  Item parse_gather() {
    Item item;
    item.kind = Item::Kind::gather;
    item.loc = lex_.next().loc;  // 'gather'
    item.branches.push_back(parse_block());
    for (const Item& inner : item.branches[0].items) {
      if (inner.kind != Item::Kind::op || inner.op.kind != OpKind::recv) {
        lex_.fail(inner.loc,
                  "gather blocks may contain only 'recv' operations");
      }
    }
    if (item.branches[0].items.empty()) {
      lex_.fail(item.loc, "gather block is empty");
    }
    return item;
  }

  Item parse_on() {
    Item item;
    item.kind = Item::Kind::on;
    item.loc = lex_.next().loc;  // 'on'
    parse_rank_range(item.on_low, item.on_high, /*allow_star=*/false);
    item.branches.push_back(parse_block());
    return item;
  }

  /// N | N..M ; with allow_star also '*' (reported as low=0, high=-1).
  void parse_rank_range(int& low, int& high, bool allow_star) {
    const Token& head = lex_.peek();
    if (allow_star && head.kind == Token::Kind::punct && head.text == "*") {
      lex_.next();
      low = 0;
      high = -1;
      return;
    }
    low = expect_rank("a rank");
    high = low;
    if (lex_.peek().kind == Token::Kind::punct && lex_.peek().text == "..") {
      const Token dots = lex_.next();
      high = expect_rank("a rank");
      if (high < low) {
        lex_.fail(dots.loc, "empty rank range " + std::to_string(low) + ".." +
                                std::to_string(high));
      }
    }
  }

  Op parse_op() {
    const Token head = lex_.next();
    Op op;
    op.loc = head.loc;
    if (head.text == "send" || head.text == "recv") {
      op.kind = head.text == "send" ? OpKind::send : OpKind::recv;
      op.peer = parse_peer();
      if (op.kind == OpKind::send && op.peer.kind != PeerSpec::Kind::exact) {
        lex_.fail(op.loc,
                  "send needs a concrete destination rank (component[k]); "
                  "got '" +
                      op.peer.to_string() + "'");
      }
      expect_keyword("tag");
      op.tag = expect_count("a tag", /*allow_zero=*/true);
      parse_payload(op.type);
      return op;
    }
    if (head.text == "barrier" || head.text == "bcast" ||
        head.text == "allreduce" || head.text == "allgather") {
      if (head.text == "barrier") {
        op.kind = OpKind::barrier;
      } else if (head.text == "bcast") {
        op.kind = OpKind::bcast;
      } else if (head.text == "allreduce") {
        op.kind = OpKind::allreduce;
      } else {
        op.kind = OpKind::allgather;
      }
      op.scope = expect_word("a scope ('world' or a component name)");
      if (op.kind == OpKind::bcast) {
        expect_keyword("root");
        op.peer = parse_peer();
        if (op.peer.kind != PeerSpec::Kind::exact) {
          lex_.fail(op.loc, "bcast root must be a concrete rank "
                            "(component[k]); got '" +
                                op.peer.to_string() + "'");
        }
      }
      if (op.kind != OpKind::barrier) parse_payload(op.type);
      return op;
    }
    lex_.fail(head.loc, "unknown operation '" + head.text + "'");
  }

  PeerSpec parse_peer() {
    PeerSpec peer;
    const Token name = lex_.next();
    if (name.kind != Token::Kind::word) {
      lex_.fail(name.loc, "expected a peer (component[rank] or 'any'), got '" +
                              name.text + "'");
    }
    if (name.text == "any") {
      peer.kind = PeerSpec::Kind::any;
      return peer;
    }
    peer.component = name.text;
    expect_punct("[");
    int low = 0;
    int high = 0;
    parse_rank_range(low, high, /*allow_star=*/true);
    expect_punct("]");
    if (high < 0) {
      peer.kind = PeerSpec::Kind::all;
    } else if (low == high) {
      peer.kind = PeerSpec::Kind::exact;
      peer.low = peer.high = low;
    } else {
      peer.kind = PeerSpec::Kind::range;
      peer.low = low;
      peer.high = high;
    }
    return peer;
  }

  /// Optional payload: `type NAME [size N] [count N]` or `bytes N`.
  void parse_payload(TypeSpec& type) {
    const Token& head = lex_.peek();
    if (head.kind != Token::Kind::word) return;
    if (head.text == "type") {
      lex_.next();
      const Token name = lex_.next();
      if (name.kind != Token::Kind::word) {
        lex_.fail(name.loc, "expected a type name, got '" + name.text + "'");
      }
      type.name = name.text;
      type.size = builtin_type_size(name.text);
      if (lex_.peek().kind == Token::Kind::word &&
          lex_.peek().text == "size") {
        lex_.next();
        type.size = static_cast<std::uint32_t>(
            expect_count("an element size"));
      }
      if (type.size == 0) {
        lex_.fail(name.loc, "unknown type '" + name.text +
                                "'; give an explicit width with 'size N'");
      }
      if (lex_.peek().kind == Token::Kind::word &&
          lex_.peek().text == "count") {
        lex_.next();
        type.count =
            static_cast<std::uint64_t>(expect_count("an element count"));
      }
      return;
    }
    if (head.text == "bytes") {
      lex_.next();
      type.bytes = static_cast<std::uint64_t>(
          expect_count("a byte count", /*allow_zero=*/true));
    }
  }

  // --- token helpers ------------------------------------------------------

  void expect_keyword(const char* word) {
    const Token tok = lex_.next();
    if (tok.kind != Token::Kind::word || tok.text != word) {
      lex_.fail(tok.loc, std::string("expected '") + word + "', got '" +
                             tok.text + "'");
    }
  }

  void expect_punct(const char* punct) {
    const Token tok = lex_.next();
    if (tok.kind != Token::Kind::punct || tok.text != punct) {
      lex_.fail(tok.loc, std::string("expected '") + punct + "', got '" +
                             tok.text + "'");
    }
  }

  std::string expect_word(const char* what) {
    const Token tok = lex_.next();
    if (tok.kind != Token::Kind::word) {
      lex_.fail(tok.loc,
                std::string("expected ") + what + ", got '" + tok.text + "'");
    }
    return tok.text;
  }

  int expect_rank(const char* what) {
    const Token tok = lex_.next();
    if (tok.kind != Token::Kind::number) {
      lex_.fail(tok.loc,
                std::string("expected ") + what + ", got '" + tok.text + "'");
    }
    return tok.value;
  }

  int expect_count(const char* what, bool allow_zero = false) {
    const Token tok = lex_.next();
    if (tok.kind != Token::Kind::number ||
        (!allow_zero && tok.value == 0)) {
      lex_.fail(tok.loc, std::string("expected ") + what +
                             " (a positive integer), got '" + tok.text + "'");
    }
    return tok.value;
  }

  // --- post-parse validation (handles forward references) -----------------

  void check_peer(const Contract& c, const Op& op) {
    if (op.peer.kind == PeerSpec::Kind::any) return;
    if (op.peer.component.empty()) return;  // collective without root
    const ComponentDecl* decl = c.find_component(op.peer.component);
    if (decl == nullptr) {
      lex_.fail(op.loc,
                "unknown component '" + op.peer.component + "' in peer");
    }
    const int high =
        op.peer.kind == PeerSpec::Kind::all ? decl->ranks - 1 : op.peer.high;
    if (high >= decl->ranks) {
      lex_.fail(op.loc, "rank " + std::to_string(high) +
                            " out of range for component '" + decl->name +
                            "' (ranks " + std::to_string(decl->ranks) + ")");
    }
  }

  void check_seq(const Contract& c, const ComponentDecl& self,
                 const Seq& seq) {
    for (const Item& item : seq.items) {
      switch (item.kind) {
        case Item::Kind::op: {
          const Op& op = item.op;
          if (op.kind == OpKind::send || op.kind == OpKind::recv ||
              op.kind == OpKind::bcast) {
            check_peer(c, op);
          }
          if (is_collective(op.kind) && op.scope != "world" &&
              c.find_component(op.scope) == nullptr) {
            lex_.fail(op.loc, "unknown collective scope '" + op.scope +
                                  "' (want 'world' or a component name)");
          }
          break;
        }
        case Item::Kind::on:
          if (item.on_high >= self.ranks) {
            lex_.fail(item.loc,
                      "'on' range " + std::to_string(item.on_low) + ".." +
                          std::to_string(item.on_high) +
                          " exceeds component '" + self.name + "' (ranks " +
                          std::to_string(self.ranks) + ")");
          }
          [[fallthrough]];
        case Item::Kind::loop:
        case Item::Kind::choice:
        case Item::Kind::gather:
          for (const Seq& branch : item.branches) {
            check_seq(c, self, branch);
          }
          break;
      }
    }
  }

  void validate(const Contract& c) {
    for (const ProtoDecl& proto : c.protos) {
      const ComponentDecl* self = c.find_component(proto.component);
      if (self == nullptr) {
        lex_.fail(proto.loc, "proto for undeclared component '" +
                                 proto.component + "'");
      }
      check_seq(c, *self, proto.body);
    }
  }

  std::string origin_;
  Lexer lex_;
};

}  // namespace

std::uint32_t builtin_type_size(std::string_view name) noexcept {
  if (name == "char" || name == "byte" || name == "bool" || name == "i8" ||
      name == "u8") {
    return 1;
  }
  if (name == "short" || name == "i16" || name == "u16") return 2;
  if (name == "int" || name == "float" || name == "i32" || name == "u32" ||
      name == "f32") {
    return 4;
  }
  if (name == "long" || name == "double" || name == "i64" || name == "u64" ||
      name == "f64") {
    return 8;
  }
  return 0;
}

Contract parse_contract(std::string_view text, std::string origin) {
  return Parser(text, std::move(origin)).parse();
}

Contract load_contract(const std::string& path) {
  const std::optional<std::string> text = util::read_file(path);
  if (!text) {
    throw MphError("proto: cannot read contract file '" + path + "'");
  }
  return parse_contract(*text, path);
}

}  // namespace mph::proto
