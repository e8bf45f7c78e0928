#include "datalog/lexer.h"

#include <cctype>
#include <cstdint>
#include <cstdlib>

#include "common/parse.h"

namespace dcdatalog {

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent:
      return "identifier";
    case TokenKind::kVariable:
      return "variable";
    case TokenKind::kWildcard:
      return "_";
    case TokenKind::kInt:
      return "integer";
    case TokenKind::kFloat:
      return "float";
    case TokenKind::kString:
      return "string";
    case TokenKind::kLParen:
      return "(";
    case TokenKind::kRParen:
      return ")";
    case TokenKind::kComma:
      return ",";
    case TokenKind::kDot:
      return ".";
    case TokenKind::kImplies:
      return ":-";
    case TokenKind::kBang:
      return "!";
    case TokenKind::kEq:
      return "=";
    case TokenKind::kNe:
      return "!=";
    case TokenKind::kLt:
      return "<";
    case TokenKind::kLe:
      return "<=";
    case TokenKind::kGt:
      return ">";
    case TokenKind::kGe:
      return ">=";
    case TokenKind::kPlus:
      return "+";
    case TokenKind::kMinus:
      return "-";
    case TokenKind::kStar:
      return "*";
    case TokenKind::kSlash:
      return "/";
    case TokenKind::kEof:
      return "end of input";
  }
  return "?";
}

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view src) {
  std::vector<Token> tokens;
  size_t i = 0;
  int line = 1;
  const size_t n = src.size();

  auto make = [&](TokenKind kind, std::string text = "") {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.line = line;
    tokens.push_back(std::move(t));
  };

  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '%' || (c == '/' && i + 1 < n && src[i + 1] == '/')) {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      if (i + 1 >= n) {
        return Status::ParseError("unterminated block comment at line " +
                                  std::to_string(line));
      }
      i += 2;
      continue;
    }
    // Identifiers / variables / wildcard.
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && IsIdentChar(src[i])) ++i;
      std::string text(src.substr(start, i - start));
      if (text == "_") {
        make(TokenKind::kWildcard, text);
      } else if (std::isupper(static_cast<unsigned char>(text[0])) ||
                 text[0] == '_') {
        make(TokenKind::kVariable, text);
      } else {
        make(TokenKind::kIdent, text);
      }
      continue;
    }
    // Numbers.
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(src[i]))) ++i;
      // A '.' is a decimal point only when followed by a digit; otherwise
      // it terminates the rule ("...arc(X, 3)." parses correctly).
      if (i + 1 < n && src[i] == '.' &&
          std::isdigit(static_cast<unsigned char>(src[i + 1]))) {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(src[i]))) ++i;
      }
      if (i < n && (src[i] == 'e' || src[i] == 'E')) {
        size_t j = i + 1;
        if (j < n && (src[j] == '+' || src[j] == '-')) ++j;
        if (j < n && std::isdigit(static_cast<unsigned char>(src[j]))) {
          is_float = true;
          i = j;
          while (i < n && std::isdigit(static_cast<unsigned char>(src[i])))
            ++i;
        }
      }
      std::string text(src.substr(start, i - start));
      Token t;
      t.line = line;
      t.text = text;
      if (is_float) {
        t.kind = TokenKind::kFloat;
        t.float_value = std::strtod(text.c_str(), nullptr);
      } else {
        t.kind = TokenKind::kInt;
        int64_t value = 0;
        if (!ParseInt64Checked(text.c_str(), INT64_MIN, INT64_MAX, &value)) {
          return Status::ParseError("integer literal " + text +
                                    " out of 64-bit range at line " +
                                    std::to_string(line));
        }
        t.int_value = value;
      }
      tokens.push_back(std::move(t));
      continue;
    }
    // Strings.
    if (c == '"') {
      size_t start = ++i;
      while (i < n && src[i] != '"' && src[i] != '\n') ++i;
      if (i >= n || src[i] != '"') {
        return Status::ParseError("unterminated string at line " +
                                  std::to_string(line));
      }
      make(TokenKind::kString, std::string(src.substr(start, i - start)));
      ++i;
      continue;
    }
    // Operators and punctuation.
    switch (c) {
      case '(':
        make(TokenKind::kLParen);
        ++i;
        break;
      case ')':
        make(TokenKind::kRParen);
        ++i;
        break;
      case ',':
        make(TokenKind::kComma);
        ++i;
        break;
      case '.':
        make(TokenKind::kDot);
        ++i;
        break;
      case '+':
        make(TokenKind::kPlus);
        ++i;
        break;
      case '-':
        make(TokenKind::kMinus);
        ++i;
        break;
      case '*':
        make(TokenKind::kStar);
        ++i;
        break;
      case '/':
        make(TokenKind::kSlash);
        ++i;
        break;
      case '=':
        make(TokenKind::kEq);
        ++i;
        break;
      case ':':
        if (i + 1 < n && src[i + 1] == '-') {
          make(TokenKind::kImplies);
          i += 2;
        } else {
          return Status::ParseError("stray ':' at line " +
                                    std::to_string(line));
        }
        break;
      case '!':
        if (i + 1 < n && src[i + 1] == '=') {
          make(TokenKind::kNe);
          i += 2;
        } else {
          make(TokenKind::kBang);
          ++i;
        }
        break;
      case '<':
        if (i + 1 < n && src[i + 1] == '=') {
          make(TokenKind::kLe);
          i += 2;
        } else {
          make(TokenKind::kLt);
          ++i;
        }
        break;
      case '>':
        if (i + 1 < n && src[i + 1] == '=') {
          make(TokenKind::kGe);
          i += 2;
        } else {
          make(TokenKind::kGt);
          ++i;
        }
        break;
      default:
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at line " + std::to_string(line));
    }
  }
  make(TokenKind::kEof);
  return tokens;
}

}  // namespace dcdatalog
