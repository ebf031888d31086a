#include "ruleset/lang/rule_lang.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "util/str.h"

namespace rfipc::ruleset::lang {
namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

struct ServiceEntry {
  std::string_view name;
  std::uint16_t port;
};

// Well-known service names accepted in portspec position (the subset
// the IPFilter element language resolves without /etc/services).
constexpr ServiceEntry kServices[] = {
    {"ftp", 21},  {"ssh", 22},   {"telnet", 23}, {"smtp", 25},  {"dns", 53},
    {"domain", 53}, {"www", 80}, {"http", 80},   {"pop3", 110}, {"ntp", 123},
    {"imap", 143}, {"snmp", 161}, {"bgp", 179},  {"https", 443},
};

std::optional<std::uint16_t> service_port(const std::string& name) {
  for (const auto& s : kServices) {
    if (s.name == name) return s.port;
  }
  return std::nullopt;
}

constexpr std::string_view kProtoNames[] = {"tcp", "udp",   "icmp", "gre",
                                            "esp", "ah",    "ospf", "sctp"};

bool is_proto_name(const std::string& name) {
  for (const auto p : kProtoNames) {
    if (p == name) return true;
  }
  return false;
}

bool is_number(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

/// Directory part of `path` ("." when there is none).
std::string dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

constexpr std::size_t kMaxIncludeDepth = 16;

/// Recursive-descent parser over the token stream. One instance per
/// file; includes spawn a child parser sharing the include stack.
class Parser {
 public:
  Parser(std::string_view text, const ImportOptions& opts, bool classifier_mode,
         std::vector<std::string>* include_stack)
      : toks_(lex(text)),
        opts_(opts),
        classifier_mode_(classifier_mode),
        include_stack_(include_stack) {}

  void run(RuleSet& out) {
    skip_separators();
    while (!peek().is(Token::Kind::kEnd)) {
      statement(out);
      // A statement ends at a separator or EOF; anything else is junk.
      if (!peek().is(Token::Kind::kEnd) && !peek().is(Token::Kind::kNewline)) {
        fail(peek(), "expected end of statement, got " + describe(peek()));
      }
      skip_separators();
    }
  }

 private:
  struct FieldsSeen {
    bool sip = false, dip = false, sp = false, dp = false, proto = false;
  };

  const Token& peek() const { return toks_[pos_]; }
  const Token& get() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }

  void skip_separators() {
    while (peek().is(Token::Kind::kNewline)) ++pos_;
  }

  [[noreturn]] void fail(const Token& t, const std::string& msg) const {
    throw LangError(t.line, t.col, msg);
  }

  static std::string describe(const Token& t) {
    if (!t.is(Token::Kind::kAtom)) return std::string(token_kind_name(t.kind));
    // Appended piecewise: operator+ on a literal and a temporary trips
    // GCC's -Werror=restrict false positive at -O3 (GCC bug 105329).
    std::string quoted;
    quoted.reserve(t.text.size() + 2);
    quoted += '\'';
    quoted += t.text;
    quoted += '\'';
    return quoted;
  }

  const Token& expect_atom(const std::string& what) {
    const Token& t = peek();
    if (!t.is(Token::Kind::kAtom)) fail(t, "expected " + what + ", got " + describe(t));
    return get();
  }

  void statement(RuleSet& out) {
    const Token& first = peek();
    const std::string word =
        first.is(Token::Kind::kAtom) ? lower(first.text) : std::string();

    if (word == "file") {
      get();
      include(out);
      return;
    }

    Rule r;
    if (classifier_mode_) {
      // Bare pattern; the action is the pattern's position in the
      // overall program (including spliced includes).
      r.action = Action::forward(static_cast<std::uint16_t>(out.size() & 0xffff));
    } else {
      r.action = action();
    }
    pattern(r);
    out.add(r);
  }

  Action action() {
    const Token& t = expect_atom("an action (allow, deny, drop, or a port number)");
    const std::string word = lower(t.text);
    if (word == "allow") return Action::forward(0);
    if (word == "deny" || word == "drop") return Action::drop();
    if (is_number(word)) {
      const auto n = util::parse_u64(word, 0xffff);
      if (!n) fail(t, "output port out of range (0..65535): '" + std::string(t.text) + "'");
      return Action::forward(static_cast<std::uint16_t>(*n));
    }
    fail(t, "unknown action '" + std::string(t.text) +
               "' (expected allow, deny, drop, or a port number)");
  }

  void pattern(Rule& r) {
    // An action with no pattern ("deny") matches everything, same as
    // "deny all".
    if (peek().is(Token::Kind::kNewline) || peek().is(Token::Kind::kEnd)) return;
    FieldsSeen seen;
    term(r, seen);
    while (peek().is(Token::Kind::kAnd)) {
      const Token& amp = get();
      if (peek().is(Token::Kind::kNewline) || peek().is(Token::Kind::kEnd)) {
        fail(amp, "unterminated expression: expected a term after '&&'");
      }
      term(r, seen);
    }
  }

  void mark(const Token& at, bool& flag, const char* what) {
    if (flag) fail(at, std::string("duplicate '") + what + "' constraint");
    flag = true;
  }

  void term(Rule& r, FieldsSeen& seen) {
    const Token& t = expect_atom("a term (src, dst, proto, a protocol name, or all)");
    const std::string word = lower(t.text);

    if (word == "all") return;  // no constraint

    if (word == "src" || word == "dst") {
      const bool src = word == "src";
      const Token& next = peek();
      const std::string sub = next.is(Token::Kind::kAtom) ? lower(next.text) : std::string();
      if (sub == "port") {
        get();
        const net::PortRange pr = portspec();
        mark(t, src ? seen.sp : seen.dp, src ? "src port" : "dst port");
        (src ? r.src_port : r.dst_port) = pr;
        return;
      }
      if (sub == "host" || sub == "net") get();  // optional noise words
      const Token& addr = expect_atom("an IPv4 address or CIDR prefix");
      const auto p = net::Ipv4Prefix::parse(addr.text);
      if (!p) fail(addr, "bad IPv4 prefix '" + std::string(addr.text) + "'");
      mark(t, src ? seen.sip : seen.dip, src ? "src" : "dst");
      (src ? r.src_ip : r.dst_ip) = p->canonical();
      return;
    }

    if (word == "ip") {
      const Token& next = expect_atom("'proto' after 'ip'");
      if (lower(next.text) != "proto") fail(next, "expected 'proto' after 'ip'");
      proto_term(t, r, seen);
      return;
    }
    if (word == "proto") {
      proto_term(t, r, seen);
      return;
    }
    if (is_proto_name(word)) {
      mark(t, seen.proto, "proto");
      r.protocol = *net::ProtocolSpec::parse(word);  // names always parse
      return;
    }

    if (word == "port") {
      fail(t, "bare 'port' is ambiguous: use 'src port ...' or 'dst port ...'");
    }
    fail(t, "unknown term '" + std::string(t.text) +
               "' (expected src, dst, proto, a protocol name, or all)");
  }

  void proto_term(const Token& at, Rule& r, FieldsSeen& seen) {
    const Token& v = expect_atom("a protocol name or number");
    const auto spec = net::ProtocolSpec::parse(lower(v.text));
    if (!spec) fail(v, "bad protocol '" + std::string(v.text) + "'");
    mark(at, seen.proto, "proto");
    r.protocol = *spec;
  }

  net::PortRange portspec() {
    const Token& t = peek();
    if (t.is(Token::Kind::kGt) || t.is(Token::Kind::kLt) || t.is(Token::Kind::kGe) ||
        t.is(Token::Kind::kLe)) {
      get();
      const Token& num = expect_atom("a port number");
      const auto n = is_number(num.text)
                         ? util::parse_u64(num.text, 0xffff)
                         : std::optional<std::uint64_t>{};
      if (!n) {
        fail(num, "bad port number '" + std::string(num.text) + "' (0..65535)");
      }
      const auto p = static_cast<std::uint16_t>(*n);
      switch (t.kind) {
        case Token::Kind::kGt:
          if (p == 0xffff) fail(num, "'> 65535' matches no port");
          return {static_cast<std::uint16_t>(p + 1), 0xffff};
        case Token::Kind::kGe: return {p, 0xffff};
        case Token::Kind::kLt:
          if (p == 0) fail(num, "'< 0' matches no port");
          return {0, static_cast<std::uint16_t>(p - 1)};
        default: return {0, p};  // kLe
      }
    }

    const Token& v = expect_atom("a port, range, service name, or '*'");
    const std::string word = lower(v.text);
    if (const auto svc = service_port(word)) return net::PortRange::exactly(*svc);
    const auto pr = net::PortRange::parse(v.text);
    if (!pr) {
      fail(v, "bad port spec '" + std::string(v.text) +
                 "' (expected a port 0..65535, lo:hi, a service name, or '*')");
    }
    return *pr;
  }

  void include(RuleSet& out) {
    const Token& path_tok = expect_atom("an include file path");
    std::string path(path_tok.text);
    if (!path.empty() && path.front() != '/') {
      path = opts_.base_dir + "/" + path;
    }
    if (include_stack_->size() >= kMaxIncludeDepth) {
      fail(path_tok, "include depth exceeds " + std::to_string(kMaxIncludeDepth));
    }
    for (const auto& open : *include_stack_) {
      if (open == path) fail(path_tok, "recursive include of '" + path + "'");
    }
    std::ifstream f(path);
    if (!f) fail(path_tok, "cannot open include file '" + path + "'");
    std::ostringstream buf;
    buf << f.rdbuf();
    if (f.bad()) fail(path_tok, "read error on include file '" + path + "'");

    include_stack_->push_back(path);
    ImportOptions sub = opts_;
    sub.base_dir = dir_of(path);
    // The token string_views point into this buffer, so it must outlive
    // the child parser's run.
    const std::string text = buf.str();
    try {
      Parser child(text, sub, classifier_mode_, include_stack_);
      child.run(out);
    } catch (const LangError& e) {
      include_stack_->pop_back();
      // Re-anchor the diagnostic at the `file` statement so the caller
      // sees which include failed; keep the inner position in the text.
      fail(path_tok, "in include '" + path + "': " + e.what());
    }
    include_stack_->pop_back();
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  ImportOptions opts_;
  bool classifier_mode_;
  std::vector<std::string>* include_stack_;
};

RuleSet parse_lang(std::string_view text, const ImportOptions& opts, bool classifier) {
  RuleSet out;
  std::vector<std::string> include_stack;
  Parser p(text, opts, classifier, &include_stack);
  p.run(out);
  return out;
}

/// Emits `r`'s pattern (no action token); "all" when unconstrained.
std::string pattern_text(const Rule& r) {
  std::vector<std::string> terms;
  if (r.src_ip.length > 0) terms.push_back("src " + r.src_ip.to_string());
  if (r.dst_ip.length > 0) terms.push_back("dst " + r.dst_ip.to_string());
  if (!r.src_port.is_wildcard()) {
    terms.push_back("src port " + r.src_port.to_string());
  }
  if (!r.dst_port.is_wildcard()) {
    terms.push_back("dst port " + r.dst_port.to_string());
  }
  if (!r.protocol.wildcard) terms.push_back("proto " + lower(r.protocol.to_string()));
  if (terms.empty()) return "all";
  std::string out;
  for (const auto& t : terms) {
    if (!out.empty()) out += " && ";
    out += t;
  }
  return out;
}

}  // namespace

RuleSet parse_ipfilter(std::string_view text, const ImportOptions& opts) {
  return parse_lang(text, opts, /*classifier=*/false);
}

RuleSet parse_ipclassifier(std::string_view text, const ImportOptions& opts) {
  return parse_lang(text, opts, /*classifier=*/true);
}

std::string to_ipfilter(const RuleSet& rs) {
  std::string out;
  for (const auto& r : rs) {
    if (r.action.kind == Action::Kind::kDrop) {
      out += "deny";
    } else if (r.action.port == 0) {
      out += "allow";
    } else {
      out += std::to_string(r.action.port);
    }
    out += ' ';
    out += pattern_text(r);
    out += '\n';
  }
  return out;
}

std::string to_ipclassifier(const RuleSet& rs) {
  std::string out;
  for (const auto& r : rs) {
    out += pattern_text(r);
    out += '\n';
  }
  return out;
}

}  // namespace rfipc::ruleset::lang
