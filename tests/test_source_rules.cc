/**
 * @file
 * A source rule for the coroutine callers in src/: no co_await in the
 * two expression shapes that GCC 12.2 builds without a warning but
 * that hang or trap at -O1 and -O2 (Proc::Op's documentation): a
 * co_await inside a conditional operator, and a parenthesized co_await
 * compared with ==, !=, <, <=, > or >= inside an if or while
 * condition. Callers bind the result to a named OpResult first.
 *
 * The scan strips comments and blanks string and character literals,
 * so prose about the shapes does not count; the sample strings below
 * hold the scanner itself to both shapes.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool
spaceChar(char c)
{
    return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/**
 * @p text with comments removed and the contents of string, raw string
 * and character literals blanked; every newline stays where it was, so
 * offsets keep their line numbers. A quote after a token that starts
 * with a digit is a digit separator (2'000), not a literal.
 */
std::string
codeOnly(const std::string &text)
{
    std::string out = text;
    std::size_t n = text.size();
    auto blank = [&out](std::size_t from, std::size_t to) {
        for (std::size_t k = from; k < to; ++k)
            if (out[k] != '\n')
                out[k] = ' ';
    };
    std::size_t i = 0;
    while (i < n) {
        char c = text[i];
        char next = i + 1 < n ? text[i + 1] : '\0';
        if (c == '/' && next == '/') {
            std::size_t e = text.find('\n', i);
            e = e == std::string::npos ? n : e;
            blank(i, e);
            i = e;
        } else if (c == '/' && next == '*') {
            std::size_t e = text.find("*/", i + 2);
            e = e == std::string::npos ? n : e + 2;
            blank(i, e);
            i = e;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !identChar(text[i - 1]))) {
            std::size_t open = text.find('(', i + 2);
            std::string close =
                ")" + text.substr(i + 2, open - (i + 2)) + "\"";
            std::size_t e = text.find(close, open);
            e = e == std::string::npos ? n : e + close.size();
            blank(i + 2, e - 1);
            i = e;
        } else if (c == '"' || c == '\'') {
            std::size_t t = i;
            while (t > 0 && identChar(text[t - 1]))
                --t;
            if (c == '\'' && t < i &&
                std::isdigit(static_cast<unsigned char>(text[t])) != 0) {
                ++i;
                continue;
            }
            std::size_t e = i + 1;
            while (e < n && text[e] != c)
                e += text[e] == '\\' ? 2 : 1;
            blank(i + 1, e < n ? e : n);
            i = e + 1;
        } else {
            ++i;
        }
    }
    return out;
}

/** Offset of the bracket closing the one at @p open, or npos. */
std::size_t
closing(const std::string &s, std::size_t open)
{
    int depth = 0;
    for (std::size_t k = open; k < s.size(); ++k) {
        if (s[k] == '(' || s[k] == '[' || s[k] == '{')
            ++depth;
        else if ((s[k] == ')' || s[k] == ']' || s[k] == '}') &&
                 --depth == 0)
            return k;
    }
    return std::string::npos;
}

/** True if the word @p w starts at @p at. */
bool
wordAt(const std::string &s, std::size_t at, const std::string &w)
{
    return s.compare(at, w.size(), w) == 0 &&
           (at == 0 || !identChar(s[at - 1])) &&
           (at + w.size() >= s.size() || !identChar(s[at + w.size()]));
}

bool
hasWord(const std::string &s, std::size_t from, std::size_t to,
        const std::string &w)
{
    for (std::size_t k = from; k < to; ++k)
        if (wordAt(s, k, w))
            return true;
    return false;
}

/**
 * True if a co_await lies in the operand region of the conditional
 * operator at @p q: outward on each side to the enclosing parenthesis
 * or bracket, to a `;` or `,` at the operator's own depth, or to any
 * brace (the statement's edge).
 */
bool
conditionalAwaits(const std::string &s, std::size_t q)
{
    std::size_t from = q;
    for (int depth = 0; from > 0; --from) {
        char c = s[from - 1];
        if (c == '{' || c == '}')
            break;
        if (c == ')' || c == ']')
            ++depth;
        else if (c == '(' || c == '[') {
            if (depth-- == 0)
                break;
        } else if (depth == 0 && (c == ';' || c == ','))
            break;
    }
    std::size_t to = q + 1;
    for (int depth = 0; to < s.size(); ++to) {
        char c = s[to];
        if (c == '{' || c == '}')
            break;
        if (c == '(' || c == '[')
            ++depth;
        else if (c == ')' || c == ']') {
            if (depth-- == 0)
                break;
        } else if (depth == 0 && (c == ';' || c == ','))
            break;
    }
    return hasWord(s, from, to, "co_await");
}

bool
comparisonAfter(const std::string &s, std::size_t k)
{
    // Member accesses, subscripts and calls on the awaited result.
    for (;;) {
        while (k < s.size() && spaceChar(s[k]))
            ++k;
        if (k < s.size() && (s[k] == '.' || s.compare(k, 2, "->") == 0)) {
            k += s[k] == '.' ? 1 : 2;
            while (k < s.size() && (identChar(s[k]) || spaceChar(s[k])))
                ++k;
        } else if (k < s.size() && (s[k] == '[' || s[k] == '(')) {
            std::size_t e = closing(s, k);
            if (e == std::string::npos)
                return false;
            k = e + 1;
        } else {
            break;
        }
    }
    if (k + 1 >= s.size())
        return false;
    std::string two = s.substr(k, 2);
    if (two == "==" || two == "!=" || two == "<=" || two == ">=")
        return true;
    return (s[k] == '<' && s[k + 1] != '<') ||
           (s[k] == '>' && s[k + 1] != '>');
}

bool
comparisonBefore(const std::string &s, std::size_t k)
{
    while (k > 0 && spaceChar(s[k - 1]))
        --k;
    if (k < 2)
        return false;
    std::string two = s.substr(k - 2, 2);
    if (two == "==" || two == "!=" || two == "<=" || two == ">=")
        return true;
    char c = s[k - 1];
    char b = s[k - 2];
    return (c == '<' && b != '<') || (c == '>' && b != '>' && b != '-');
}

/** The condition of each if or while as [open paren, close paren]. */
std::vector<std::pair<std::size_t, std::size_t>>
conditions(const std::string &s)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t k = 0; k < s.size(); ++k) {
        std::size_t len = wordAt(s, k, "if")      ? 2
                          : wordAt(s, k, "while") ? 5
                                                  : 0;
        if (len == 0)
            continue;
        std::size_t open = k + len;
        while (open < s.size() && spaceChar(s[open]))
            ++open;
        if (open >= s.size() || s[open] != '(')
            continue;
        std::size_t close = closing(s, open);
        if (close != std::string::npos)
            out.emplace_back(open, close);
    }
    return out;
}

/** One matched shape: its 1-based line and which shape it was. */
struct Finding
{
    int line;
    std::string shape;
};

/** Every occurrence of either shape in the source text @p text. */
std::vector<Finding>
scan(const std::string &text)
{
    std::string s = codeOnly(text);
    std::vector<std::size_t> offsets;
    std::vector<std::string> shapes;
    for (std::size_t k = 0; k < s.size(); ++k) {
        if (s[k] == '?' && conditionalAwaits(s, k)) {
            offsets.push_back(k);
            shapes.push_back("co_await inside a conditional operator");
        }
    }
    for (const auto &[open, close] : conditions(s)) {
        for (std::size_t k = open + 1; k < close; ++k) {
            if (s[k] != '(')
                continue;
            std::size_t w = k + 1;
            while (w < close && spaceChar(s[w]))
                ++w;
            if (!wordAt(s, w, "co_await"))
                continue;
            std::size_t e = closing(s, k);
            if (e == std::string::npos || e > close)
                continue;
            if (comparisonAfter(s, e + 1) || comparisonBefore(s, k)) {
                offsets.push_back(k);
                shapes.push_back(
                    "parenthesized co_await compared in a condition");
            }
        }
    }
    std::vector<Finding> out;
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        int line = 1;
        for (std::size_t k = 0; k < offsets[i]; ++k)
            line += s[k] == '\n' ? 1 : 0;
        out.push_back({line, shapes[i]});
    }
    return out;
}

TEST(CoAwaitShapes, ScannerFlagsBothShapes)
{
    struct Sample
    {
        const char *code;
        int line; ///< 0 when the sample must pass
    };
    const Sample samples[] = {
        {"co_return (c ? co_await p.fetchAdd(a, v)\n"
         "              : co_await p.fetchStore(a, v)).value;",
         1},
        {"Word w = (co_await p.load(a)).value ? 1 : 2;", 1},
        {"for (;;) {\n  if ((co_await p.ll(a)).value != expected)\n"
         "    break;\n}",
         2},
        {"while ((co_await p.load(flag)).value == 0) {}", 1},
        {"if (t < ( co_await p.load(a) ).value) {}", 1},
        {"if ((co_await p.load(a)).value >= t) {}", 1},
        {"do {\n} while (\n  (co_await p.load(a)).value <= t);", 3},
        {"OpResult r = co_await p.ll(a);\n"
         "if (r.value != expected) {}",
         0},
        {"co_await p.store(a, c ? 1 : 2);", 0},
        {"if ((co_await p.cas(a, e, d)).success) {}", 0},
        {"if (!(co_await p.cas(a, e, d)).success) {}", 0},
        {"// if ((co_await p.ll(a)).value != e)\n"
         "/* c ? co_await x : co_await y */",
         0},
        {"const char *s = \"c ? co_await x : y\";", 0},
        {"Tick t = 2'000'000;\nif ((co_await p.load(a)).value == t) {}",
         2},
    };
    for (const Sample &smp : samples) {
        SCOPED_TRACE(smp.code);
        std::vector<Finding> f = scan(smp.code);
        if (smp.line == 0) {
            EXPECT_TRUE(f.empty());
        } else {
            ASSERT_EQ(f.size(), 1u);
            EXPECT_EQ(f[0].line, smp.line);
        }
    }
}

TEST(CoAwaitShapes, NoneInSources)
{
    namespace fs = std::filesystem;
    int files = 0;
    for (const fs::directory_entry &e :
         fs::recursive_directory_iterator(DSM_TEST_SOURCE_DIR)) {
        std::string ext = e.path().extension().string();
        if (!e.is_regular_file() || (ext != ".cc" && ext != ".hh"))
            continue;
        ++files;
        std::ifstream in(e.path());
        std::stringstream text;
        text << in.rdbuf();
        for (const Finding &f : scan(text.str()))
            ADD_FAILURE() << e.path().string() << ":" << f.line << ": "
                          << f.shape;
    }
    // Anti-vacuous: the tree was found and read.
    EXPECT_GT(files, 100);
}

} // namespace
