/* Runtime intrinsics of the C subset, for building the suite with the
 * host C compiler. Formats match the interpreter's: print_int prints a
 * decimal and a newline, print_double ten significant digits. */
#include <stdio.h>
#include <stdlib.h>
static void print_int(long v) { printf("%ld\n", v); }
static void print_char(long c) { putchar((int)c); }
static void print_double(double d) { printf("%.10g\n", d); }
static void print_str(const char *s) { fputs(s, stdout); }
